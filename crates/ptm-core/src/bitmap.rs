//! Word-packed bit vectors with the join operations the estimators need:
//! bitwise AND/OR of equal-length maps and power-of-two
//! replication-expansion (paper Sec. III-A).

use crate::error::EstimateError;
use crate::join::{join_at, JoinOp};
use serde::{Deserialize, Serialize};

pub(crate) const WORD_BITS: usize = 64;

/// A fixed-length bit vector.
///
/// # Example
///
/// ```
/// use ptm_core::Bitmap;
///
/// let mut b = Bitmap::new(8);
/// b.set(3);
/// assert!(b.get(3));
/// assert_eq!(b.count_ones(), 1);
/// assert_eq!(b.fraction_zeros(), 7.0 / 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Creates an all-zero bitmap of `len` bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "bitmap length must be positive");
        Self {
            words: vec![0u64; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Wraps packed words (see [`Bitmap::words`]) as a bitmap of `len` bits.
    pub(crate) fn from_words(words: Vec<u64>, len: usize) -> Self {
        debug_assert_eq!(words.len(), len.div_ceil(WORD_BITS));
        debug_assert!(
            len.is_multiple_of(WORD_BITS) || words[words.len() - 1] >> (len % WORD_BITS) == 0
        );
        Self { words, len }
    }

    /// The packed words: bit `i` is bit `i % 64` of word `i / 64`, and the
    /// bits past `len` in the last word are zero.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero length (never true; lengths are positive).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets the bit at `index` to one.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range for length {}",
            self.len
        );
        self.words[index / WORD_BITS] |= 1u64 << (index % WORD_BITS);
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range for length {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Fraction of bits that are zero (`V_0` in the paper).
    pub fn fraction_zeros(&self) -> f64 {
        self.count_zeros() as f64 / self.len as f64
    }

    /// Fraction of bits that are one (`V_1` in the paper).
    pub fn fraction_ones(&self) -> f64 {
        self.count_ones() as f64 / self.len as f64
    }

    /// Whether the length is a power of two (required for joins).
    pub fn is_power_of_two(&self) -> bool {
        self.len.is_power_of_two()
    }

    /// Bitwise AND with an equal-length bitmap, in place.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::IncompatibleSizes`] when lengths differ; use
    /// [`Bitmap::expand_to`] first.
    pub fn and_assign(&mut self, other: &Bitmap) -> Result<(), EstimateError> {
        self.check_same_len(other)?;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= *b;
        }
        Ok(())
    }

    /// Bitwise OR with an equal-length bitmap, in place.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::IncompatibleSizes`] when lengths differ.
    pub fn or_assign(&mut self, other: &Bitmap) -> Result<(), EstimateError> {
        self.check_same_len(other)?;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
        Ok(())
    }

    fn check_same_len(&self, other: &Bitmap) -> Result<(), EstimateError> {
        if self.len == other.len {
            Ok(())
        } else {
            Err(EstimateError::IncompatibleSizes {
                small: self.len.min(other.len),
                large: self.len.max(other.len),
            })
        }
    }

    /// Replication-expansion (paper Fig. 2): replicates the bitmap until its
    /// length reaches `target`. Because record sizes are powers of two, the
    /// replication factor `target / len` is always an integer, and the
    /// membership property `B[h mod len] = 1  ⟹  E[h mod target] = 1`
    /// holds for every hash value `h`. The copy is a one-input join (see
    /// [`crate::join`]): each replica is filled by copying the source words
    /// once.
    ///
    /// # Errors
    ///
    /// * [`EstimateError::NotPowerOfTwo`] if either length is not a power of
    ///   two;
    /// * [`EstimateError::IncompatibleSizes`] if `target < len`.
    pub fn expand_to(&self, target: usize) -> Result<Bitmap, EstimateError> {
        if !self.len.is_power_of_two() {
            return Err(EstimateError::NotPowerOfTwo { len: self.len });
        }
        if !target.is_power_of_two() {
            return Err(EstimateError::NotPowerOfTwo { len: target });
        }
        if target < self.len {
            return Err(EstimateError::IncompatibleSizes {
                small: target,
                large: self.len,
            });
        }
        Ok(join_at(&[self], target, JoinOp::And))
    }

    /// Packs the bitmap into `ceil(len/8)` little-endian bytes (bit `i` is
    /// bit `i % 8` of byte `i / 8`) — the stable on-disk / wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len.div_ceil(8));
        self.write_bytes(&mut out);
        out
    }

    /// Appends [`Bitmap::to_bytes`]'s layout to `out`, one 64-bit word per
    /// 8 bytes, then the leading bytes of the last word when the size is
    /// not a whole number of words — so an encoder can pack the bitmap
    /// straight into the buffer that ships it.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        let bytes = self.len.div_ceil(8);
        let start = out.len();
        out.resize(start + bytes, 0);
        let (chunks, tail) = out[start..].as_chunks_mut::<8>();
        for (chunk, word) in chunks.iter_mut().zip(&self.words) {
            *chunk = word.to_le_bytes();
        }
        if !tail.is_empty() {
            let last = self.words[self.words.len() - 1].to_le_bytes();
            tail.copy_from_slice(&last[..tail.len()]);
        }
    }

    /// Rebuilds a bitmap from [`Bitmap::to_bytes`] output, one 64-bit word
    /// per 8 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`EstimateError::IncompatibleSizes`] when the byte count
    /// does not match `len`, and rejects set bits beyond `len` (corrupt
    /// input) the same way.
    pub fn from_bytes(len: usize, bytes: &[u8]) -> Result<Self, EstimateError> {
        if len == 0 || bytes.len() != len.div_ceil(8) {
            return Err(EstimateError::IncompatibleSizes {
                small: len.div_ceil(8),
                large: bytes.len(),
            });
        }
        let (whole, tail) = bytes.as_chunks::<8>();
        let mut words = Vec::with_capacity(len.div_ceil(WORD_BITS));
        words.extend(whole.iter().map(|&chunk| u64::from_le_bytes(chunk)));
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            words.push(u64::from_le_bytes(last));
        }
        // Reject garbage beyond the logical length.
        let tail_bits = len % WORD_BITS;
        if tail_bits != 0 && words.last().is_some_and(|&last| last >> tail_bits != 0) {
            return Err(EstimateError::IncompatibleSizes {
                small: len,
                large: len + 1,
            });
        }
        Ok(Self { words, len })
    }

    /// Iterator over the indices of the one bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let base = wi * WORD_BITS;
            let len = self.len;
            BitIter { word, base }.take_while(move |&i| i < len)
        })
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::new(130);
        assert_eq!(b.count_ones(), 0);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(129);
        assert!(b.get(0) && b.get(63) && b.get(64) && b.get(129));
        assert!(!b.get(1) && !b.get(128));
        assert_eq!(b.count_ones(), 4);
        assert_eq!(b.count_zeros(), 126);
        // Setting the same bit twice is idempotent.
        b.set(0);
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn fractions() {
        let mut b = Bitmap::new(4);
        b.set(1);
        assert_eq!(b.fraction_ones(), 0.25);
        assert_eq!(b.fraction_zeros(), 0.75);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        Bitmap::new(8).set(8);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let _ = Bitmap::new(0);
    }

    #[test]
    fn and_or_basics() {
        let mut a = Bitmap::new(8);
        a.set(0);
        a.set(1);
        let mut b = Bitmap::new(8);
        b.set(1);
        b.set(2);

        let mut and = a.clone();
        and.and_assign(&b).expect("same length");
        assert_eq!(and.iter_ones().collect::<Vec<_>>(), vec![1]);

        let mut or = a.clone();
        or.or_assign(&b).expect("same length");
        assert_eq!(or.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn and_length_mismatch_is_error() {
        let mut a = Bitmap::new(8);
        let b = Bitmap::new(16);
        assert_eq!(
            a.and_assign(&b),
            Err(EstimateError::IncompatibleSizes {
                small: 8,
                large: 16
            })
        );
    }

    #[test]
    fn expand_doubles_pattern() {
        // The Fig. 2 example: B2 replicated once.
        let mut b = Bitmap::new(4);
        b.set(1);
        b.set(2);
        let e = b.expand_to(8).expect("expand");
        assert_eq!(e.iter_ones().collect::<Vec<_>>(), vec![1, 2, 5, 6]);
        assert_eq!(e.fraction_zeros(), b.fraction_zeros());
    }

    #[test]
    fn expand_identity() {
        let mut b = Bitmap::new(64);
        b.set(7);
        let e = b.expand_to(64).expect("expand");
        assert_eq!(e, b);
    }

    #[test]
    fn expand_sub_word_to_multi_word() {
        let mut b = Bitmap::new(2);
        b.set(1);
        let e = b.expand_to(256).expect("expand");
        assert_eq!(e.count_ones(), 128);
        for i in 0..256 {
            assert_eq!(e.get(i), i % 2 == 1, "bit {i}");
        }
    }

    #[test]
    fn expand_word_multiple() {
        let mut b = Bitmap::new(128);
        b.set(5);
        b.set(127);
        let e = b.expand_to(512).expect("expand");
        assert_eq!(e.count_ones(), 8);
        for k in 0..4 {
            assert!(e.get(5 + 128 * k));
            assert!(e.get(127 + 128 * k));
        }
    }

    #[test]
    fn expand_rejects_shrink_and_non_pow2() {
        let b = Bitmap::new(16);
        assert!(matches!(
            b.expand_to(8),
            Err(EstimateError::IncompatibleSizes { .. })
        ));
        assert!(matches!(
            b.expand_to(24),
            Err(EstimateError::NotPowerOfTwo { len: 24 })
        ));
        let c = Bitmap::new(12);
        assert!(matches!(
            c.expand_to(24),
            Err(EstimateError::NotPowerOfTwo { len: 12 })
        ));
    }

    #[test]
    fn iter_ones_matches_get() {
        let mut b = Bitmap::new(200);
        for i in [0usize, 1, 63, 64, 65, 128, 199] {
            b.set(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 1, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn serde_roundtrip() {
        let mut b = Bitmap::new(100);
        b.set(42);
        let json = serde_json::to_string(&b).expect("serialize");
        let back: Bitmap = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, b);
    }

    #[test]
    fn byte_roundtrip_various_lengths() {
        for len in [1usize, 7, 8, 9, 63, 64, 65, 100, 256, 1000] {
            let mut b = Bitmap::new(len);
            let mut state = 0x1234u64;
            for i in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                if state >> 63 == 1 {
                    b.set(i);
                }
            }
            let bytes = b.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            let back = Bitmap::from_bytes(len, &bytes).expect("roundtrip");
            assert_eq!(back, b, "length {len}");
        }
    }

    #[test]
    fn from_bytes_rejects_bad_input() {
        assert!(
            Bitmap::from_bytes(16, &[0u8; 3]).is_err(),
            "wrong byte count"
        );
        assert!(Bitmap::from_bytes(0, &[]).is_err(), "zero length");
        // A set bit beyond the logical length is corruption.
        assert!(Bitmap::from_bytes(4, &[0b0001_0000]).is_err());
        assert!(Bitmap::from_bytes(4, &[0b0000_1111]).is_ok());
    }

    #[test]
    fn byte_layout_is_little_endian_bits() {
        let mut b = Bitmap::new(16);
        b.set(0);
        b.set(9);
        assert_eq!(b.to_bytes(), vec![0b0000_0001, 0b0000_0010]);
    }

    proptest! {
        /// The core membership property behind the paper's Sec. III-A proof:
        /// if `B[h mod len] = 1` then after expansion `E[h mod target] = 1`.
        #[test]
        fn expansion_preserves_membership(
            len_pow in 0u32..10,
            extra_pow in 0u32..6,
            hashes in proptest::collection::vec(any::<u64>(), 1..40),
        ) {
            let len = 1usize << len_pow;
            let target = len << extra_pow;
            let mut b = Bitmap::new(len);
            for &h in &hashes {
                b.set((h % len as u64) as usize);
            }
            let e = b.expand_to(target).expect("expand");
            for &h in &hashes {
                prop_assert!(e.get((h % target as u64) as usize));
            }
            // Expansion preserves the zero fraction exactly.
            prop_assert!((e.fraction_zeros() - b.fraction_zeros()).abs() < 1e-12);
        }

        /// AND of expanded maps only keeps bits set in every source map.
        #[test]
        fn and_is_intersection(
            ones_a in proptest::collection::btree_set(0usize..64, 0..32),
            ones_b in proptest::collection::btree_set(0usize..64, 0..32),
        ) {
            let mut a = Bitmap::new(64);
            for &i in &ones_a { a.set(i); }
            let mut b = Bitmap::new(64);
            for &i in &ones_b { b.set(i); }
            let mut joined = a.clone();
            joined.and_assign(&b).expect("same size");
            let expected: Vec<usize> = ones_a.intersection(&ones_b).copied().collect();
            prop_assert_eq!(joined.iter_ones().collect::<Vec<_>>(), expected);
        }

        /// OR is union.
        #[test]
        fn or_is_union(
            ones_a in proptest::collection::btree_set(0usize..64, 0..32),
            ones_b in proptest::collection::btree_set(0usize..64, 0..32),
        ) {
            let mut a = Bitmap::new(64);
            for &i in &ones_a { a.set(i); }
            let mut b = Bitmap::new(64);
            for &i in &ones_b { b.set(i); }
            let mut joined = a.clone();
            joined.or_assign(&b).expect("same size");
            let expected: Vec<usize> = ones_a.union(&ones_b).copied().collect();
            prop_assert_eq!(joined.iter_ones().collect::<Vec<_>>(), expected);
        }

        /// counts always agree with a naive bit-by-bit scan.
        #[test]
        fn counts_agree_with_scan(
            len in 1usize..300,
            seed in any::<u64>(),
        ) {
            let mut b = Bitmap::new(len);
            let mut state = seed;
            for i in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if state >> 63 == 1 {
                    b.set(i);
                }
            }
            let scanned = (0..len).filter(|&i| b.get(i)).count();
            prop_assert_eq!(b.count_ones(), scanned);
            prop_assert_eq!(b.count_zeros(), len - scanned);
        }
    }
}
