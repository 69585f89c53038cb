//! CRC-32 (IEEE 802.3 polynomial, reflected), four slicing-by-16 lanes.
//!
//! Implemented from scratch like the rest of the substrates; validated
//! against the standard check value (`crc32("123456789") = 0xCBF43926`).
//!
//! Each whole 1 KiB block is cut into four 256-byte lanes, and each lane
//! runs its own slicing-by-16 chain: 16 bytes per step through sixteen
//! lookup tables. Lane 0 starts from the incoming register, lanes 1–3
//! from zero. The four chains share no data, so the CPU overlaps their
//! table loads instead of waiting on one chain's. The register update is
//! linear over GF(2): with `shift(r, n)` the register after `n` zero bytes
//! (`r · x^(8n) mod P`),
//!
//! ```text
//! update(s, A ‖ B) = shift(update(s, A), |B|) ^ update(0, B)
//! ```
//!
//! so the lanes join Horner-style as `shift(shift(shift(c0) ^ c1) ^ c2) ^ c3`
//! with `n = 256` bytes, a multiplication by `x^2048 mod P` that a 4×256
//! table applies one register byte at a time. Input shorter than a block,
//! and a block's tail, go through a single chain: 16 bytes per step, then at
//! most one 8-byte word through the first eight tables, then the final
//! `len % 8` bytes one at a time. All 16 + 4 KiB of tables are built at
//! compile time.
//!
//! The output is identical to the byte-at-a-time definition (kept as the
//! test reference below), so every frame and archive ever written checks
//! the same. Every frame passes through it on the client, in the daemon's
//! frame check, in the segment append and in every `open`.

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

/// One slicing-by-16 step of the register over 16 bytes.
fn step16(crc: u32, bytes: &[u8; 16]) -> u32 {
    let x = u128::from_le_bytes(*bytes);
    fold_word::<8>(x as u64 ^ u64::from(crc)) ^ fold_word::<0>((x >> 64) as u64)
}

/// Bytes per lane: the join multiplies by `x^(8 * LANE)` = `x^2048`.
const LANE: usize = 256;

/// Slicing steps per lane.
const LANE_STEPS: usize = LANE / 16;

/// `JOIN[k][b]` is the register after `LANE` zero bytes from the register
/// `b << 8k`.
const JOIN: [[u32; 256]; 4] = build_join(&TABLES[0]);

const fn build_join(table: &[u32; 256]) -> [[u32; 256]; 4] {
    let mut join = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            let mut crc = (b as u32) << (8 * k);
            let mut n = 0;
            while n < LANE {
                crc = (crc >> 8) ^ table[(crc & 0xFF) as usize];
                n += 1;
            }
            join[k][b] = crc;
            b += 1;
        }
        k += 1;
    }
    join
}

/// `shift(crc, LANE)`: the register after `LANE` zero bytes.
fn shift_lane(crc: u32) -> u32 {
    JOIN[0][(crc & 0xFF) as usize]
        ^ JOIN[1][((crc >> 8) & 0xFF) as usize]
        ^ JOIN[2][((crc >> 16) & 0xFF) as usize]
        ^ JOIN[3][(crc >> 24) as usize]
}

/// Advances the raw (pre-inverted) CRC register over `data`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let (blocks, rest) = data.as_chunks::<{ 4 * LANE }>();
    for block in blocks {
        let (steps, _) = block.as_chunks::<16>();
        let mut lanes = [crc, 0, 0, 0];
        for i in 0..LANE_STEPS {
            for (lane, reg) in lanes.iter_mut().enumerate() {
                *reg = step16(*reg, &steps[lane * LANE_STEPS + i]);
            }
        }
        crc = shift_lane(shift_lane(shift_lane(lanes[0]) ^ lanes[1]) ^ lanes[2]) ^ lanes[3];
    }
    let (sixteens, rest) = rest.as_chunks::<16>();
    for bytes in sixteens {
        crc = step16(crc, bytes);
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
    fn four_lanes_match_bytewise_at_every_length_up_to_three_blocks() {
        // Every length through three whole four-lane blocks and past them,
        // so each block count meets every tail length.
        let max = 3 * 4 * LANE + 64;
        let buf = noise(max + 8);
        for offset in 0..8 {
            for len in 0..=max {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), reference(data), "offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn four_lanes_match_bytewise_split_around_the_block_boundaries() {
        // Either side of one and two blocks, and one record's payload
        // (two blocks and a 248-byte tail).
        for len in [1023, 1024, 1025, 2047, 2048, 2049, 2296] {
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
