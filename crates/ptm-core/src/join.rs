//! Joining traffic records: replication to a common size combined with
//! bitwise AND (Sec. III-A) or OR (Sec. IV-A second level).
//!
//! # One join primitive
//!
//! Every join in the crate goes through one primitive, `join_at`:
//! [`and_join`], [`or_join`], [`Bitmap::expand_to`] (a one-input join), the
//! point estimator's two halves, the point-to-point estimator's two
//! locations and the k-way estimator's groups. It folds each input,
//! replicated to the target length, into one target-size word buffer. An
//! input of `64·w` bits is replicated by folding its `w` words into every
//! `w`-word chunk of the buffer; a sub-word input first repeats its pattern
//! across one 64-bit tile (or across the target's bits when the target is
//! itself sub-word) and that one-word tile is replicated the same way. No
//! input is copied into an expanded bitmap of its own, and no output word
//! needs a division to find its source word.
//!
//! # Why joining straight at the common size is bit-exact
//!
//! Bit `i` of a map `X` replicated to `M` bits is bit `i mod |X|` of `X`.
//! At power-of-two lengths `|X|` divides `|Y|` divides `M`, so
//! `(i mod |Y|) mod |X| = i mod |X|`: replication commutes with AND and OR,
//! and joining inputs straight at `M` gives the same words as joining them
//! at their own largest size and replicating the result to `M` afterwards.
//! Replication by `2^k` also multiplies a map's ones and zeros counts by
//! `2^k` exactly. A fraction `count / len` read at `M` is therefore the same
//! `f64` as read at the map's own size: both operands are integers scaled by
//! one power of two, each exactly representable, and IEEE division rounds
//! the same exact quotient. The estimators rely on both facts to read their
//! fractions from maps joined once at the common size.

use crate::bitmap::{Bitmap, WORD_BITS};
use crate::error::EstimateError;
use crate::record::TrafficRecord;
use std::borrow::Borrow;

/// How a set of records is split into the two halves `Π_a` / `Π_b` that the
/// point persistent estimator joins separately (Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// The paper's split: `Π_a` is the first `⌈t/2⌉` records, `Π_b` the rest.
    #[default]
    Halves,
    /// Ablation: even-indexed records in `Π_a`, odd-indexed in `Π_b`.
    /// Useful when traffic volume trends over time, so both halves see a
    /// mixture of light and heavy periods.
    Interleaved,
}

impl SplitStrategy {
    /// Partitions indices `0..t` into the two subsets.
    pub fn split(&self, t: usize) -> (Vec<usize>, Vec<usize>) {
        match self {
            Self::Halves => {
                let cut = t.div_ceil(2);
                ((0..cut).collect(), (cut..t).collect())
            }
            Self::Interleaved => (
                (0..t).filter(|i| i % 2 == 0).collect(),
                (0..t).filter(|i| i % 2 == 1).collect(),
            ),
        }
    }
}

/// The bitwise operation a join combines its inputs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JoinOp {
    /// Intersection (Sec. III-A).
    And,
    /// Union (Sec. IV-A).
    Or,
}

/// AND-joins bitmaps after expanding each to the largest size present.
///
/// # Errors
///
/// * [`EstimateError::NoRecords`] for an empty input;
/// * [`EstimateError::NotPowerOfTwo`] if any bitmap length is not a power of
///   two (expansion undefined).
pub fn and_join<'a, I>(bitmaps: I) -> Result<Bitmap, EstimateError>
where
    I: IntoIterator<Item = &'a Bitmap>,
{
    join_all(bitmaps, JoinOp::And)
}

/// OR-joins bitmaps after expanding each to the largest size present.
///
/// # Errors
///
/// Same conditions as [`and_join`].
pub fn or_join<'a, I>(bitmaps: I) -> Result<Bitmap, EstimateError>
where
    I: IntoIterator<Item = &'a Bitmap>,
{
    join_all(bitmaps, JoinOp::Or)
}

fn join_all<'a, I>(bitmaps: I, op: JoinOp) -> Result<Bitmap, EstimateError>
where
    I: IntoIterator<Item = &'a Bitmap>,
{
    let maps: Vec<&Bitmap> = bitmaps.into_iter().collect();
    if maps.is_empty() {
        return Err(EstimateError::NoRecords);
    }
    let target = common_len(&maps)?;
    Ok(counted_join(&maps, target, op))
}

/// The size a set of maps joins at: the largest length, once every length
/// is known to be a power of two. `0` for an empty set.
///
/// # Errors
///
/// [`EstimateError::NotPowerOfTwo`] naming the first map, in order, whose
/// length is not a power of two (replication is undefined for it).
pub(crate) fn common_len(maps: &[&Bitmap]) -> Result<usize, EstimateError> {
    let mut target = 0;
    for map in maps {
        if !map.is_power_of_two() {
            return Err(EstimateError::NotPowerOfTwo { len: map.len() });
        }
        target = target.max(map.len());
    }
    Ok(target)
}

/// [`join_at`] as one counted join: times `core.join`, bumps
/// `core.join.and.ops` or `core.join.or.ops`, and records `fan_in`, each
/// input's `expansion_factor` against `target`, and `expansions`.
pub(crate) fn counted_join(maps: &[&Bitmap], target: usize, op: JoinOp) -> Bitmap {
    let _t = ptm_obs::span!("core.join");
    match op {
        JoinOp::And => ptm_obs::counter!("core.join.and.ops").inc(),
        JoinOp::Or => ptm_obs::counter!("core.join.or.ops").inc(),
    }
    if ptm_obs::metrics_enabled() {
        ptm_obs::histogram!("core.join.fan_in").record(maps.len() as u64);
        for map in maps {
            let factor = (target / map.len()) as u64;
            ptm_obs::histogram!("core.join.expansion_factor").record(factor);
            if factor > 1 {
                ptm_obs::counter!("core.join.expansions").inc();
            }
        }
    }
    join_at(maps, target, op)
}

/// The join primitive: folds every map, replicated to `target` bits, into
/// one `target`-bit word buffer with `op` (the first map is copied in).
///
/// Callers have checked, as [`common_len`] does, that every length is a
/// power of two no larger than `target`, itself a power of two.
///
/// # Panics
///
/// Panics if `maps` is empty.
pub(crate) fn join_at(maps: &[&Bitmap], target: usize, op: JoinOp) -> Bitmap {
    let (first, rest) = maps.split_first().expect("a join has at least one input");
    let mut words = vec![0u64; target.div_ceil(WORD_BITS)];
    fold_replicated(&mut words, target, first, |_, s| s);
    for map in rest {
        match op {
            JoinOp::And => fold_replicated(&mut words, target, map, |a, s| a & s),
            JoinOp::Or => fold_replicated(&mut words, target, map, |a, s| a | s),
        }
    }
    Bitmap::from_words(words, target)
}

/// Folds `map`, replicated to `target` bits, into `acc` with `op`: its
/// words (or its one-word tile) are folded into every chunk of `acc` of
/// the same length.
fn fold_replicated(acc: &mut [u64], target: usize, map: &Bitmap, op: impl Fn(u64, u64) -> u64) {
    debug_assert!(map.is_power_of_two() && target.is_power_of_two() && map.len() <= target);
    let tile;
    let src = if map.len() >= WORD_BITS {
        map.words()
    } else {
        tile = [sub_word_tile(map, target.min(WORD_BITS))];
        &tile[..]
    };
    for chunk in acc.chunks_exact_mut(src.len()) {
        for (a, &s) in chunk.iter_mut().zip(src) {
            *a = op(*a, s);
        }
    }
}

/// A sub-word map's pattern repeated across the low `width` bits, by
/// doubling (`len <= width <= 64`, both powers of two). The bits past
/// `len` in a map's word are zero, so the pattern needs no mask.
fn sub_word_tile(map: &Bitmap, width: usize) -> u64 {
    let mut tile = map.words()[0];
    let mut filled = map.len();
    while filled < width {
        tile |= tile << filled;
        filled *= 2;
    }
    tile
}

/// Ones in `a`, ones in `b` and ones in `a op b`, read in one sweep over
/// two maps of one length. The estimators take all three fractions of a
/// point (Eq. 12) or point-to-point (Eq. 21) answer from it, so the
/// combined map is never built.
pub(crate) fn ones_in_one_sweep(a: &Bitmap, b: &Bitmap, op: JoinOp) -> (usize, usize, usize) {
    debug_assert_eq!(a.len(), b.len());
    match op {
        JoinOp::And => count_sweep(a.words(), b.words(), |x, y| x & y),
        JoinOp::Or => count_sweep(a.words(), b.words(), |x, y| x | y),
    }
}

fn count_sweep(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64) -> (usize, usize, usize) {
    let (mut ones_a, mut ones_b, mut ones_ab) = (0usize, 0usize, 0usize);
    for (&x, &y) in a.iter().zip(b) {
        ones_a += x.count_ones() as usize;
        ones_b += y.count_ones() as usize;
        ones_ab += op(x, y).count_ones() as usize;
    }
    (ones_a, ones_b, ones_ab)
}

/// `count / len` as the `f64` a [`Bitmap`] fraction reads.
pub(crate) fn fraction(count: usize, len: usize) -> f64 {
    count as f64 / len as f64
}

/// The bitmaps of a single-location record set, in order.
///
/// # Errors
///
/// * [`EstimateError::NoRecords`] for an empty set;
/// * [`EstimateError::LocationMismatch`] if any record is from another
///   location than the first.
pub(crate) fn location_bitmaps<R: Borrow<TrafficRecord>>(
    records: &[R],
) -> Result<Vec<&Bitmap>, EstimateError> {
    let first = records.first().ok_or(EstimateError::NoRecords)?;
    let location = first.borrow().location();
    records
        .iter()
        .map(|r| {
            let r = r.borrow();
            if r.location() == location {
                Ok(r.bitmap())
            } else {
                Err(EstimateError::LocationMismatch)
            }
        })
        .collect()
}

/// AND-joins the bitmaps of a record set from a single location, checking
/// that the records really are from one location.
///
/// # Errors
///
/// * [`EstimateError::LocationMismatch`] if locations differ;
/// * plus the [`and_join`] conditions.
pub fn and_join_records<R: Borrow<TrafficRecord>>(records: &[R]) -> Result<Bitmap, EstimateError> {
    and_join(location_bitmaps(records)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bm(len: usize, ones: &[usize]) -> Bitmap {
        let mut b = Bitmap::new(len);
        for &i in ones {
            b.set(i);
        }
        b
    }

    #[test]
    fn and_join_same_size_is_plain_and() {
        // Fig. 1: equal-size AND.
        let a = bm(8, &[0, 2, 5]);
        let b = bm(8, &[2, 5, 7]);
        let joined = and_join([&a, &b]).expect("join");
        assert_eq!(joined.iter_ones().collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn and_join_mixed_sizes_expands() {
        // Fig. 2: the 4-bit map expands to 8 bits before the AND.
        let small = bm(4, &[1]);
        let large = bm(8, &[1, 5, 6]);
        let joined = and_join([&small, &large]).expect("join");
        // small expands to ones at {1, 5}; AND with {1,5,6} = {1,5}.
        assert_eq!(joined.iter_ones().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn or_join_mixed_sizes() {
        let small = bm(4, &[0]);
        let large = bm(8, &[3]);
        let joined = or_join([&small, &large]).expect("join");
        assert_eq!(joined.iter_ones().collect::<Vec<_>>(), vec![0, 3, 4]);
    }

    #[test]
    fn empty_join_is_error() {
        assert_eq!(and_join(std::iter::empty()), Err(EstimateError::NoRecords));
        assert_eq!(or_join(std::iter::empty()), Err(EstimateError::NoRecords));
    }

    #[test]
    fn non_power_of_two_rejected() {
        let bad = bm(6, &[0]);
        let good = bm(8, &[0]);
        assert!(matches!(
            and_join([&bad, &good]),
            Err(EstimateError::NotPowerOfTwo { len: 6 })
        ));
    }

    #[test]
    fn single_map_join_is_identity() {
        let a = bm(16, &[3, 9]);
        assert_eq!(and_join([&a]).expect("join"), a);
        assert_eq!(or_join([&a]).expect("join"), a);
    }

    #[test]
    fn halves_split() {
        assert_eq!(SplitStrategy::Halves.split(5), (vec![0, 1, 2], vec![3, 4]));
        assert_eq!(SplitStrategy::Halves.split(4), (vec![0, 1], vec![2, 3]));
        assert_eq!(SplitStrategy::Halves.split(2), (vec![0], vec![1]));
    }

    #[test]
    fn interleaved_split() {
        assert_eq!(
            SplitStrategy::Interleaved.split(5),
            (vec![0, 2, 4], vec![1, 3])
        );
    }

    #[test]
    fn record_join_checks_location() {
        use crate::encoding::LocationId;
        use crate::params::BitmapSize;
        use crate::record::{PeriodId, TrafficRecord};
        let size = BitmapSize::new(8).expect("pow2");
        let a = TrafficRecord::new(LocationId::new(1), PeriodId::new(0), size);
        let b = TrafficRecord::new(LocationId::new(2), PeriodId::new(0), size);
        assert_eq!(
            and_join_records(&[a.clone(), b]),
            Err(EstimateError::LocationMismatch)
        );
        assert!(and_join_records(&[a]).is_ok());
        assert_eq!(
            and_join_records::<TrafficRecord>(&[]),
            Err(EstimateError::NoRecords)
        );
    }

    proptest! {
        /// AND result never has more ones than any input (after accounting
        /// for expansion, which preserves the ones *fraction*).
        #[test]
        fn and_fraction_bounded_by_min_input(
            lens in proptest::collection::vec(3u32..8, 2..5),
            seed in any::<u64>(),
        ) {
            let mut state = seed;
            let maps: Vec<Bitmap> = lens.iter().map(|&p| {
                let len = 1usize << p;
                let mut b = Bitmap::new(len);
                for i in 0..len {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if state >> 62 == 0 {
                        b.set(i);
                    }
                }
                b
            }).collect();
            let joined = and_join(maps.iter()).expect("join");
            let min_frac = maps
                .iter()
                .map(|m| m.fraction_ones())
                .fold(f64::INFINITY, f64::min);
            prop_assert!(joined.fraction_ones() <= min_frac + 1e-12);
        }

        /// Splits partition the index set exactly.
        #[test]
        fn splits_partition(t in 2usize..50) {
            for strategy in [SplitStrategy::Halves, SplitStrategy::Interleaved] {
                let (a, b) = strategy.split(t);
                let mut all: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
                all.sort_unstable();
                prop_assert_eq!(all, (0..t).collect::<Vec<_>>());
                prop_assert!(!a.is_empty());
                prop_assert!(!b.is_empty());
            }
        }
    }
}
