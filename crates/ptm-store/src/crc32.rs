//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-16.
//!
//! Implemented from scratch like the rest of the substrates; validated
//! against the standard check value (`crc32("123456789") = 0xCBF43926`).
//!
//! The checksum absorbs 16 bytes per step through sixteen lookup tables
//! (16 KiB) built at compile time, then at most one 8-byte word through
//! the first eight of them, and only the final `len % 8` bytes one at a
//! time. The output is identical to the byte-at-a-time definition (kept as
//! the test reference below), so every frame and archive ever written
//! checks the same. Every frame passes through it on the client, in the
//! daemon's frame check, in the segment append and in every `open`.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC contribution of the 8 bytes of `x` (little-endian) followed by
/// `ZEROS` zero bytes: byte `j` of `x` goes through `TABLES[ZEROS + 7 - j]`.
fn fold_word<const ZEROS: usize>(x: u64) -> u32 {
    TABLES[ZEROS + 7][(x & 0xFF) as usize]
        ^ TABLES[ZEROS + 6][((x >> 8) & 0xFF) as usize]
        ^ TABLES[ZEROS + 5][((x >> 16) & 0xFF) as usize]
        ^ TABLES[ZEROS + 4][((x >> 24) & 0xFF) as usize]
        ^ TABLES[ZEROS + 3][((x >> 32) & 0xFF) as usize]
        ^ TABLES[ZEROS + 2][((x >> 40) & 0xFF) as usize]
        ^ TABLES[ZEROS + 1][((x >> 48) & 0xFF) as usize]
        ^ TABLES[ZEROS][(x >> 56) as usize]
}

/// Advances the raw (pre-inverted) CRC register over `data`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, rest) = data.as_chunks::<16>();
    for block in blocks {
        let x = u128::from_le_bytes(*block);
        crc = fold_word::<8>(x as u64 ^ u64::from(crc)) ^ fold_word::<0>((x >> 64) as u64);
    }
    let (words, tail) = rest.as_chunks::<8>();
    for word in words {
        crc = fold_word::<0>(u64::from_le_bytes(*word) ^ u64::from(crc));
    }
    for &byte in tail {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    crc
}

/// Computes the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !update(!0u32, data)
}

/// Incremental CRC-32 for multi-part frames.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Starts a new checksum.
    pub fn new() -> Self {
        Self { state: !0u32 }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.state = update(self.state, data);
    }

    /// Finishes and returns the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time definition the sliced loop must match.
    fn reference(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"abc"), 0x3524_41C2);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"split into several pieces for the incremental api";
        for cut in 0..data.len() {
            let mut crc = Crc32::new();
            crc.update(&data[..cut]);
            crc.update(&data[cut..]);
            assert_eq!(crc.finalize(), crc32(data), "cut {cut}");
        }
    }

    /// Checks `crc32`, and `Crc32::update` split once at every point,
    /// against the reference for `len` bytes starting at each of 8 offsets.
    fn check_every_single_split(len: usize) {
        let buf = noise(len + 8);
        for offset in 0..8 {
            let data = &buf[offset..offset + len];
            let expected = reference(data);
            assert_eq!(crc32(data), expected, "offset {offset} len {len}");
            for cut in 0..=len {
                let mut crc = Crc32::new();
                crc.update(&data[..cut]);
                crc.update(&data[cut..]);
                assert_eq!(
                    crc.finalize(),
                    expected,
                    "offset {offset} len {len} cut {cut}"
                );
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_at_every_short_length() {
        for len in 0..=256 {
            check_every_single_split(len);
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_4k() {
        check_every_single_split(4 << 10);
    }

    #[test]
    fn sliced_matches_bytewise_on_64k() {
        // One split at each of 65 537 points would rehash 4 GiB per offset.
        // Instead, pass `phase` cuts at phase, phase + 61, phase + 122, …:
        // across the 61 passes every point is a cut, and each 61-byte piece
        // (7 words and 5 tail bytes) starts at a different alignment.
        const STRIDE: usize = 61;
        let len = 64 << 10;
        let buf = noise(len + 8);
        for offset in 0..8 {
            let data = &buf[offset..offset + len];
            let expected = reference(data);
            assert_eq!(crc32(data), expected, "offset {offset}");
            for phase in 0..STRIDE {
                let mut crc = Crc32::new();
                crc.update(&data[..phase]);
                for piece in data[phase..].chunks(STRIDE) {
                    crc.update(piece);
                }
                assert_eq!(crc.finalize(), expected, "offset {offset} phase {phase}");
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0x5Au8; 64];
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut corrupted = data.clone();
            corrupted[i] ^= 1;
            assert_ne!(crc32(&corrupted), base, "flip at byte {i} undetected");
        }
    }
}
