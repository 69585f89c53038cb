//! The materialising join-and-estimate pipeline that the one-pass kernel in
//! [`crate::join`] replaced, kept only as the test reference the kernel
//! must match bit for bit.
//!
//! Here every join input is copied into an expanded bitmap of its own
//! (one `%` per output word), each point half is joined at its own size and
//! expanded again before the final AND into a materialised `E_*`, and the
//! point-to-point second level materialises `S_*` and `E''_*`. The tests
//! below compare it with the shipped estimators on every ordered
//! combination of small power-of-two lengths, on sampled windows at record
//! sizes, and on the malformed inputs, asserting identical `f64` bits or an
//! identical [`EstimateError`].

use crate::bitmap::{Bitmap, WORD_BITS};
use crate::error::EstimateError;
use crate::join::SplitStrategy;
use crate::p2p::P2pForm;
use crate::point::EstimateWithError;
use crate::record::TrafficRecord;

fn expand_to(map: &Bitmap, target: usize) -> Result<Bitmap, EstimateError> {
    let len = map.len();
    if !len.is_power_of_two() {
        return Err(EstimateError::NotPowerOfTwo { len });
    }
    if !target.is_power_of_two() {
        return Err(EstimateError::NotPowerOfTwo { len: target });
    }
    if target < len {
        return Err(EstimateError::IncompatibleSizes {
            small: target,
            large: len,
        });
    }
    if target == len {
        return Ok(map.clone());
    }
    let src = map.words();
    let mut words = vec![0u64; target.div_ceil(WORD_BITS)];
    if len >= WORD_BITS {
        for (i, word) in words.iter_mut().enumerate() {
            *word = src[i % src.len()];
        }
    } else {
        let pattern = src[0] & ((1u64 << len) - 1);
        let mut tile = 0u64;
        for k in 0..(WORD_BITS / len).min(target / len) {
            tile |= pattern << (k * len);
        }
        if target < WORD_BITS {
            words[0] = tile & ((1u64 << target) - 1);
        } else {
            words.fill(tile);
        }
    }
    Ok(Bitmap::from_words(words, target))
}

fn join_with(
    maps: &[&Bitmap],
    combine: fn(&mut Bitmap, &Bitmap) -> Result<(), EstimateError>,
) -> Result<Bitmap, EstimateError> {
    if maps.is_empty() {
        return Err(EstimateError::NoRecords);
    }
    let mut target = 0usize;
    for map in maps {
        if !map.is_power_of_two() {
            return Err(EstimateError::NotPowerOfTwo { len: map.len() });
        }
        target = target.max(map.len());
    }
    let mut joined = expand_to(maps[0], target)?;
    for map in &maps[1..] {
        let expanded = expand_to(map, target)?;
        combine(&mut joined, &expanded)?;
    }
    Ok(joined)
}

pub(crate) fn and_join(maps: &[&Bitmap]) -> Result<Bitmap, EstimateError> {
    join_with(maps, Bitmap::and_assign)
}

pub(crate) fn or_join(maps: &[&Bitmap]) -> Result<Bitmap, EstimateError> {
    join_with(maps, Bitmap::or_assign)
}

fn single_location(records: &[TrafficRecord]) -> Result<Vec<&Bitmap>, EstimateError> {
    let location = records[0].location();
    if records.iter().any(|r| r.location() != location) {
        return Err(EstimateError::LocationMismatch);
    }
    Ok(records.iter().map(TrafficRecord::bitmap).collect())
}

fn and_join_records(records: &[TrafficRecord]) -> Result<Bitmap, EstimateError> {
    if records.is_empty() {
        return Err(EstimateError::NoRecords);
    }
    and_join(&single_location(records)?)
}

fn too_few(required: usize, actual: usize) -> Result<(), EstimateError> {
    if actual < required {
        return Err(EstimateError::TooFewRecords { required, actual });
    }
    Ok(())
}

fn join_halves(split: SplitStrategy, maps: &[&Bitmap]) -> Result<(Bitmap, Bitmap), EstimateError> {
    let (idx_a, idx_b) = split.split(maps.len());
    let half = |idx: &[usize]| idx.iter().map(|&i| maps[i]).collect::<Vec<_>>();
    let e_a = and_join(&half(&idx_a))?;
    let e_b = and_join(&half(&idx_b))?;
    Ok((e_a, e_b))
}

/// `(m, V_a,0, V_b,0, V_*,1, arg)` from the halves expanded twice and
/// ANDed into a materialised `E_*`.
fn halves_fractions(
    e_a: &Bitmap,
    e_b: &Bitmap,
) -> Result<(usize, f64, f64, f64, f64), EstimateError> {
    let m = e_a.len().max(e_b.len());
    let e_a = expand_to(e_a, m)?;
    let e_b = expand_to(e_b, m)?;
    let mut e_star = e_a.clone();
    e_star.and_assign(&e_b)?;
    let v_a0 = e_a.fraction_zeros();
    let v_b0 = e_b.fraction_zeros();
    let v_star1 = e_star.fraction_ones();
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
    Ok((m, v_a0, v_b0, v_star1, arg))
}

pub(crate) fn estimate_from_halves(e_a: &Bitmap, e_b: &Bitmap) -> Result<f64, EstimateError> {
    let (m, v_a0, v_b0, _, arg) = halves_fractions(e_a, e_b)?;
    let denom = (1.0 - 1.0 / m as f64).ln();
    Ok((v_a0.ln() + v_b0.ln() - arg.ln()) / denom)
}

pub(crate) fn estimate_from_halves_with_error(
    e_a: &Bitmap,
    e_b: &Bitmap,
) -> Result<EstimateWithError, EstimateError> {
    let (m, v_a0, v_b0, v_star1, arg) = halves_fractions(e_a, e_b)?;
    let ln_q = (1.0 - 1.0 / m as f64).ln();
    let value = (v_a0.ln() + v_b0.ln() - arg.ln()) / ln_q;
    let d_va = (1.0 / v_a0 - 1.0 / arg) / ln_q;
    let d_vb = (1.0 / v_b0 - 1.0 / arg) / ln_q;
    let d_v1 = (-1.0 / arg) / ln_q;
    let mf = m as f64;
    let var = d_va * d_va * v_a0 * (1.0 - v_a0) / mf
        + d_vb * d_vb * v_b0 * (1.0 - v_b0) / mf
        + d_v1 * d_v1 * v_star1 * (1.0 - v_star1) / mf;
    Ok(EstimateWithError {
        value,
        std_error: var.max(0.0).sqrt(),
    })
}

pub(crate) fn point_bitmaps(split: SplitStrategy, maps: &[&Bitmap]) -> Result<f64, EstimateError> {
    too_few(2, maps.len())?;
    let (e_a, e_b) = join_halves(split, maps)?;
    estimate_from_halves(&e_a, &e_b)
}

pub(crate) fn point(split: SplitStrategy, records: &[TrafficRecord]) -> Result<f64, EstimateError> {
    too_few(2, records.len())?;
    point_bitmaps(split, &single_location(records)?)
}

pub(crate) fn point_with_error(
    split: SplitStrategy,
    records: &[TrafficRecord],
) -> Result<EstimateWithError, EstimateError> {
    too_few(2, records.len())?;
    let (e_a, e_b) = join_halves(split, &single_location(records)?)?;
    estimate_from_halves_with_error(&e_a, &e_b)
}

pub(crate) fn naive_bitmaps(maps: &[&Bitmap]) -> Result<f64, EstimateError> {
    let e_star = and_join(maps)?;
    crate::lpc::from_zero_fraction(e_star.fraction_zeros(), e_star.len(), "E_*")
}

pub(crate) fn naive(records: &[TrafficRecord]) -> Result<f64, EstimateError> {
    if records.is_empty() {
        return Err(EstimateError::NoRecords);
    }
    naive_bitmaps(&single_location(records)?)
}

pub(crate) fn kway_bitmaps(k: usize, maps: &[&Bitmap]) -> Result<f64, EstimateError> {
    too_few(k, maps.len())?;
    let mut groups: Vec<Vec<&Bitmap>> = vec![Vec::new(); k];
    for (i, &map) in maps.iter().enumerate() {
        groups[i % k].push(map);
    }
    let joins: Vec<Bitmap> = groups
        .iter()
        .map(|group| and_join(group))
        .collect::<Result<_, _>>()?;
    let m = joins.iter().map(Bitmap::len).max().expect("k >= 2 groups");
    let expanded: Vec<Bitmap> = joins
        .iter()
        .map(|j| expand_to(j, m))
        .collect::<Result<_, _>>()?;
    let mut e_star = expanded[0].clone();
    for e in &expanded[1..] {
        e_star.and_assign(e)?;
    }
    let v0: Vec<f64> = expanded.iter().map(Bitmap::fraction_zeros).collect();
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
    let n_groups: Vec<f64> = v0.iter().map(|v| v.ln() / q.ln()).collect();
    let n_max = n_groups.iter().copied().fold(f64::INFINITY, f64::min);
    let predicted = |n_star: f64| -> f64 {
        let qc = q.powf(n_star);
        let transient_align: f64 = n_groups
            .iter()
            .map(|&n_i| 1.0 - q.powf((n_i - n_star).max(0.0)))
            .product();
        1.0 - qc + qc * transient_align
    };
    let lo_val = predicted(0.0);
    let hi_val = predicted(n_max);
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

pub(crate) fn kway(k: usize, records: &[TrafficRecord]) -> Result<f64, EstimateError> {
    too_few(k, records.len())?;
    kway_bitmaps(k, &single_location(records)?)
}

pub(crate) fn p2p_joined(
    s: u32,
    form: P2pForm,
    e_star: &Bitmap,
    e_star_prime: &Bitmap,
) -> Result<f64, EstimateError> {
    let (small, large) = if e_star.len() <= e_star_prime.len() {
        (e_star, e_star_prime)
    } else {
        (e_star_prime, e_star)
    };
    let m_prime = large.len();
    let v0_small = small.fraction_zeros();
    let v0_large = large.fraction_zeros();
    if v0_small <= 0.0 {
        return Err(EstimateError::Saturated { which: "E_*" });
    }
    if v0_large <= 0.0 {
        return Err(EstimateError::Saturated { which: "E'_*" });
    }
    let mut e_double = expand_to(small, m_prime)?;
    e_double.or_assign(large)?;
    let v0_double = e_double.fraction_zeros();
    if v0_double <= 0.0 {
        return Err(EstimateError::Saturated { which: "E''_*" });
    }
    let log_ratio = v0_double.ln() - v0_small.ln() - v0_large.ln();
    let s = s as f64;
    let m = m_prime as f64;
    Ok(match form {
        P2pForm::Paper => s * m * log_ratio,
        P2pForm::Exact => log_ratio / (1.0 + 1.0 / (s * m - s)).ln(),
    })
}

pub(crate) fn p2p(
    s: u32,
    form: P2pForm,
    records_l: &[TrafficRecord],
    records_lp: &[TrafficRecord],
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
    let e_star = and_join_records(records_l)?;
    let e_star_prime = and_join_records(records_lp)?;
    p2p_joined(s, form, &e_star, &e_star_prime)
}

mod tests {
    use super::*;
    use crate::encoding::LocationId;
    use crate::join;
    use crate::kway::KwayEstimator;
    use crate::p2p::PointToPointEstimator;
    use crate::point::{self as point_mod, NaiveAndEstimator, PointEstimator};
    use crate::record::PeriodId;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    const SPLITS: [SplitStrategy; 2] = [SplitStrategy::Halves, SplitStrategy::Interleaved];
    const FORMS: [P2pForm; 2] = [P2pForm::Paper, P2pForm::Exact];
    const S: u32 = 3;

    /// xorshift64: deterministic fills without a dependency.
    struct Noise(u64);

    impl Noise {
        fn new(seed: u64) -> Self {
            Self(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }

        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Fill {
        /// Bits set at random, at a density of 1/8, 1/2 or 7/8 per map.
        Random,
        Zeros,
        Ones,
        /// Map `i` takes random, zero or one fill by `(i + seed) % 3`, so a
        /// saturated map meets unsaturated ones.
        Mixed,
    }

    const FILLS: [Fill; 4] = [Fill::Random, Fill::Zeros, Fill::Ones, Fill::Mixed];

    fn fill_maps(lens: &[usize], fill: Fill, seed: u64) -> Vec<Bitmap> {
        let mut noise = Noise::new(seed);
        lens.iter()
            .enumerate()
            .map(|(i, &len)| {
                let mut map = Bitmap::new(len);
                let fill = match fill {
                    Fill::Mixed => [Fill::Random, Fill::Zeros, Fill::Ones][(i + seed as usize) % 3],
                    fill => fill,
                };
                match fill {
                    Fill::Random => {
                        let eighths = [1, 4, 7][noise.below(3)];
                        for bit in 0..len {
                            if noise.below(8) < eighths {
                                map.set(bit);
                            }
                        }
                    }
                    Fill::Ones => (0..len).for_each(|bit| map.set(bit)),
                    Fill::Zeros | Fill::Mixed => {}
                }
                map
            })
            .collect()
    }

    fn records_at(location: u64, maps: &[Bitmap]) -> Vec<TrafficRecord> {
        maps.iter()
            .enumerate()
            .map(|(p, map)| {
                TrafficRecord::from_bitmap(
                    LocationId::new(location),
                    PeriodId::new(p as u32),
                    map.clone(),
                )
                .expect("power-of-two map")
            })
            .collect()
    }

    fn shared(records: &[TrafficRecord]) -> Vec<Arc<TrafficRecord>> {
        records.iter().cloned().map(Arc::new).collect()
    }

    /// The `t` lengths numbered `combo` when each of `choices` is a digit.
    fn lengths(combo: usize, t: usize, choices: &[usize]) -> Vec<usize> {
        let mut rest = combo;
        (0..t)
            .map(|_| {
                let len = choices[rest % choices.len()];
                rest /= choices.len();
                len
            })
            .collect()
    }

    const POW2: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
    /// Lengths 1..=12: powers of two mixed with lengths that are not.
    const ANY: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12];

    /// Tallies the outcomes seen, so a test can show it reached every
    /// branch it claims to cover.
    #[derive(Default)]
    struct Seen(BTreeSet<String>);

    impl Seen {
        fn note<T>(&mut self, outcome: &Result<T, EstimateError>) {
            self.0.insert(match outcome {
                Ok(_) => "ok".to_string(),
                Err(err) => format!("{err:?}"),
            });
        }

        fn assert_covers(&self, expected: &[&str]) {
            for want in expected {
                assert!(
                    self.0.iter().any(|seen| seen.starts_with(want)),
                    "never reached {want}; saw {:?}",
                    self.0
                );
            }
        }
    }

    #[track_caller]
    fn assert_same(
        new: Result<f64, EstimateError>,
        old: &Result<f64, EstimateError>,
        ctx: &dyn Fn() -> String,
    ) {
        match (&new, old) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{}: {a} vs reference {b}", ctx())
            }
            _ => assert_eq!(&new, old, "{}", ctx()),
        }
    }

    #[track_caller]
    fn assert_same_with_error(
        new: Result<EstimateWithError, EstimateError>,
        old: Result<EstimateWithError, EstimateError>,
        ctx: &dyn Fn() -> String,
    ) {
        assert_same(
            new.clone().map(|e| e.value),
            &old.clone().map(|e| e.value),
            ctx,
        );
        assert_same(new.map(|e| e.std_error), &old.map(|e| e.std_error), ctx);
    }

    #[track_caller]
    fn assert_same_map(
        new: Result<Bitmap, EstimateError>,
        old: Result<Bitmap, EstimateError>,
        ctx: &dyn Fn() -> String,
    ) {
        assert_eq!(new, old, "{}", ctx());
    }

    /// Every point entry point on one bitmap set: the bitmap and record
    /// APIs under both splits, with and without the error, the naive
    /// estimator, every k-way split the set admits, and the two joins.
    fn check_point_family(maps: &[Bitmap], seen: &mut Seen, ctx: &dyn Fn() -> String) {
        let refs: Vec<&Bitmap> = maps.iter().collect();
        for split in SPLITS {
            let ctx = || format!("{} {split:?}", ctx());
            let old = point_bitmaps(split, &refs);
            seen.note(&old);
            assert_same(
                PointEstimator::with_split(split).estimate_bitmaps(&refs),
                &old,
                &ctx,
            );
        }
        assert_same(
            NaiveAndEstimator::new().estimate_bitmaps(&refs),
            &naive_bitmaps(&refs),
            &|| format!("{} naive", ctx()),
        );
        for k in 2..=maps.len().min(4) {
            assert_same(
                KwayEstimator::new(k).estimate_bitmaps(&refs),
                &kway_bitmaps(k, &refs),
                &|| format!("{} k={k}", ctx()),
            );
        }
        assert_same_map(
            join::and_join(refs.iter().copied()),
            and_join(&refs),
            &|| format!("{} and_join", ctx()),
        );
        assert_same_map(join::or_join(refs.iter().copied()), or_join(&refs), &|| {
            format!("{} or_join", ctx())
        });
        if !maps.iter().all(Bitmap::is_power_of_two) {
            return;
        }
        let records = records_at(1, maps);
        for split in SPLITS {
            let ctx = || format!("{} records {split:?}", ctx());
            let estimator = PointEstimator::with_split(split);
            let old = point(split, &records);
            assert_same(estimator.estimate(&records), &old, &ctx);
            assert_same(estimator.estimate(&shared(&records)), &old, &ctx);
            assert_same_with_error(
                estimator.estimate_with_error(&records),
                point_with_error(split, &records),
                &ctx,
            );
        }
        assert_same(
            NaiveAndEstimator::new().estimate(&records),
            &naive(&records),
            &|| format!("{} naive records", ctx()),
        );
        for k in 2..=maps.len().min(4) {
            assert_same(
                KwayEstimator::new(k).estimate(&records),
                &kway(k, &records),
                &|| format!("{} k={k} records", ctx()),
            );
        }
    }

    /// Both halves-level functions on one pair of joined halves.
    fn check_halves(e_a: &Bitmap, e_b: &Bitmap, seen: &mut Seen, ctx: &dyn Fn() -> String) {
        let old = estimate_from_halves(e_a, e_b);
        seen.note(&old);
        assert_same(point_mod::estimate_from_halves(e_a, e_b), &old, ctx);
        assert_same_with_error(
            point_mod::estimate_from_halves_with_error(e_a, e_b),
            estimate_from_halves_with_error(e_a, e_b),
            ctx,
        );
    }

    /// Every point-to-point entry point on two locations' maps, both forms,
    /// both argument orders, from records and from the joined maps.
    fn check_p2p_family(
        maps_l: &[Bitmap],
        maps_lp: &[Bitmap],
        seen: &mut Seen,
        ctx: &dyn Fn() -> String,
    ) {
        let records_l = records_at(1, maps_l);
        let records_lp = records_at(2, maps_lp);
        let joined_l = and_join(&maps_l.iter().collect::<Vec<_>>()).expect("pow2 maps");
        let joined_lp = and_join(&maps_lp.iter().collect::<Vec<_>>()).expect("pow2 maps");
        for form in FORMS {
            let estimator = PointToPointEstimator::new(S).with_form(form);
            for (l, lp) in [(&records_l, &records_lp), (&records_lp, &records_l)] {
                let ctx = || {
                    format!(
                        "{} {form:?} l={} lp={}",
                        ctx(),
                        l[0].location().get(),
                        lp[0].location().get()
                    )
                };
                let old = p2p(S, form, l, lp);
                seen.note(&old);
                assert_same(estimator.estimate(l, lp), &old, &ctx);
                assert_same(estimator.estimate(&shared(l), &shared(lp)), &old, &ctx);
            }
            for (a, b) in [(&joined_l, &joined_lp), (&joined_lp, &joined_l)] {
                assert_same(
                    estimator.estimate_joined(a, b),
                    &p2p_joined(S, form, a, b),
                    &|| format!("{} {form:?} joined", ctx()),
                );
            }
        }
    }

    #[test]
    fn point_matches_reference_on_every_power_of_two_length_combination() {
        let mut seen = Seen::default();
        for t in 2..=4usize {
            for combo in 0..POW2.len().pow(t as u32) {
                let lens = lengths(combo, t, &POW2);
                for (f, fill) in FILLS.into_iter().enumerate() {
                    let maps = fill_maps(&lens, fill, (combo * 4 + f) as u64);
                    check_point_family(&maps, &mut seen, &|| {
                        format!("point lens {lens:?} {fill:?}")
                    });
                }
            }
        }
        seen.assert_covers(&[
            "ok",
            "Saturated { which: \"E_a\" }",
            "Saturated { which: \"E_b\" }",
            "Degenerate",
        ]);
    }

    #[test]
    fn halves_match_reference_on_every_length_pair() {
        let mut seen = Seen::default();
        for choices in [&POW2[..], &ANY[..]] {
            for combo in 0..choices.len().pow(2) {
                let lens = lengths(combo, 2, choices);
                for (f, fill) in FILLS.into_iter().enumerate() {
                    let maps = fill_maps(&lens, fill, (combo * 4 + f) as u64);
                    check_halves(&maps[0], &maps[1], &mut seen, &|| {
                        format!("halves lens {lens:?} {fill:?}")
                    });
                }
            }
        }
        seen.assert_covers(&["ok", "Saturated", "Degenerate", "NotPowerOfTwo"]);
    }

    #[test]
    fn p2p_matches_reference_on_every_power_of_two_length_combination() {
        let mut seen = Seen::default();
        for t in 1..=2usize {
            for combo in 0..POW2.len().pow(2 * t as u32) {
                let lens = lengths(combo, 2 * t, &POW2);
                for (f, fill) in FILLS.into_iter().enumerate() {
                    let maps = fill_maps(&lens, fill, (combo * 4 + f) as u64);
                    let (maps_l, maps_lp) = maps.split_at(t);
                    check_p2p_family(maps_l, maps_lp, &mut seen, &|| {
                        format!("p2p lens {lens:?} {fill:?}")
                    });
                }
            }
        }
        seen.assert_covers(&[
            "ok",
            "Saturated { which: \"E_*\" }",
            "Saturated { which: \"E'_*\" }",
            "Saturated { which: \"E''_*\" }",
        ]);
    }

    #[test]
    fn non_power_of_two_lengths_fail_like_the_reference() {
        let mut seen = Seen::default();
        for t in 2..=3usize {
            for combo in 0..ANY.len().pow(t as u32) {
                let lens = lengths(combo, t, &ANY);
                for (f, fill) in FILLS.into_iter().enumerate() {
                    let maps = fill_maps(&lens, fill, (combo * 4 + f) as u64);
                    check_point_family(&maps, &mut seen, &|| format!("any lens {lens:?} {fill:?}"));
                    if t == 2 {
                        // Saturation is judged before expansion can fail.
                        for form in FORMS {
                            let estimator = PointToPointEstimator::new(S).with_form(form);
                            let old = p2p_joined(S, form, &maps[0], &maps[1]);
                            seen.note(&old);
                            assert_same(
                                estimator.estimate_joined(&maps[0], &maps[1]),
                                &old,
                                &|| format!("joined lens {lens:?} {fill:?} {form:?}"),
                            );
                        }
                    }
                }
            }
        }
        for len in ANY {
            let map = fill_maps(&[len], Fill::Random, len as u64).remove(0);
            for target in 1..=2 * ANY.len() {
                assert_eq!(
                    map.expand_to(target),
                    expand_to(&map, target),
                    "expand {len} to {target}"
                );
            }
        }
        seen.assert_covers(&["ok", "NotPowerOfTwo", "Saturated"]);
    }

    #[test]
    fn location_and_period_mismatches_fail_like_the_reference() {
        let mut seen = Seen::default();
        for t in 1..=4usize {
            for fill in FILLS {
                let maps = fill_maps(&[64, 256, 128, 64][..t], fill, t as u64);
                for stray in 0..t {
                    let mut records = records_at(1, &maps);
                    let moved = records[stray].clone();
                    records[stray] = TrafficRecord::from_bitmap(
                        LocationId::new(9),
                        moved.period(),
                        moved.bitmap().clone(),
                    )
                    .expect("pow2");
                    let ctx = || format!("stray {stray} of {t} {fill:?}");
                    for split in SPLITS {
                        let old = point(split, &records);
                        seen.note(&old);
                        assert_same(
                            PointEstimator::with_split(split).estimate(&records),
                            &old,
                            &ctx,
                        );
                        assert_same_with_error(
                            PointEstimator::with_split(split).estimate_with_error(&records),
                            point_with_error(split, &records),
                            &ctx,
                        );
                    }
                    assert_same(
                        NaiveAndEstimator::new().estimate(&records),
                        &naive(&records),
                        &ctx,
                    );
                    for k in 2..=3 {
                        assert_same(
                            KwayEstimator::new(k).estimate(&records),
                            &kway(k, &records),
                            &ctx,
                        );
                    }
                    assert_same_map(
                        join::and_join_records(&records),
                        and_join_records(&records),
                        &ctx,
                    );
                    let clean = records_at(2, &maps);
                    for form in FORMS {
                        let estimator = PointToPointEstimator::new(S).with_form(form);
                        for (l, lp) in [(&records, &clean), (&clean, &records)] {
                            let old = p2p(S, form, l, lp);
                            seen.note(&old);
                            assert_same(estimator.estimate(l, lp), &old, &ctx);
                        }
                    }
                }
            }
        }
        // Period mismatches (and empty sets) come before any location check.
        for t_l in 0..=3usize {
            for t_lp in 0..=3usize {
                let records_l = records_at(1, &fill_maps(&vec![64; t_l], Fill::Random, 7));
                let records_lp = records_at(2, &fill_maps(&vec![128; t_lp], Fill::Ones, 8));
                for form in FORMS {
                    let old = p2p(S, form, &records_l, &records_lp);
                    seen.note(&old);
                    let new = PointToPointEstimator::new(S)
                        .with_form(form)
                        .estimate(&records_l, &records_lp);
                    assert_same(new, &old, &|| format!("periods {t_l} vs {t_lp}"));
                }
            }
        }
        seen.assert_covers(&[
            "LocationMismatch",
            "PeriodMismatch",
            "NoRecords",
            "TooFewRecords",
        ]);
    }

    /// Record-sized windows: `t` up to 20 records of 2^12..=2^15 bits
    /// each, filled like traffic (persistent vehicles in every record,
    /// fresh transient ones per record).
    #[test]
    fn sampled_windows_at_record_sizes_match_reference() {
        let mut noise = Noise::new(0x5A3D);
        let mut seen = Seen::default();
        for case in 0..48 {
            let t = 1 + noise.below(20);
            let sizes: Vec<usize> = (0..2 * t).map(|_| 1 << (12 + noise.below(4))).collect();
            let smallest = *sizes.iter().min().expect("t >= 1");
            let persistent: Vec<u64> = (0..noise.below(smallest / 4))
                .map(|_| noise.next())
                .collect();
            let maps: Vec<Bitmap> = sizes
                .iter()
                .map(|&len| {
                    let mut map = Bitmap::new(len);
                    let transient = len / 4 + noise.below(len / 2);
                    for h in persistent
                        .iter()
                        .copied()
                        .chain((0..transient).map(|_| noise.next()))
                    {
                        map.set((h % len as u64) as usize);
                    }
                    map
                })
                .collect();
            let (maps_l, maps_lp) = maps.split_at(t);
            let ctx = || format!("case {case}: t {t}, sizes {sizes:?}");
            if t >= 2 {
                check_point_family(maps_l, &mut seen, &ctx);
            }
            check_p2p_family(maps_l, maps_lp, &mut seen, &ctx);
        }
        seen.assert_covers(&["ok"]);
    }
}
