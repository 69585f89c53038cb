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
//! `len % 8` bytes one at a time.
//!
//! The same identity, with the pre- and post-inversion folded in, is zlib's
//! `crc32_combine`: `crc32(A ‖ B) = shift(crc32(A), |B|) ^ crc32(B)`. For
//! any `n`, `shift` multiplies by `x^(8n) mod P` as a product of the
//! precomputed `x^(8 · d · 256^k) mod P`, one per nonzero byte `d` of `n`
//! (two for a record of up to 64 KiB), each a carry-less 32×32-bit
//! multiply and a four-table reduction. Because the identity is an XOR,
//! [`crc32_combine`] also runs backwards: from the CRC of a whole message
//! and of its prefix it gives the CRC of the rest without reading the rest.
//! The daemon derives each archived record's CRC that way from the wire CRC
//! it has just verified, so the segment append does not checksum the record
//! again.
//!
//! All 16 KiB of slicing tables, the 4 KiB join table and the 8 KiB of
//! powers are built at compile time.
//!
//! The output is identical to the byte-at-a-time definition (kept as the
//! test reference below), so every frame and archive ever written checks
//! the same. Every frame passes through it on the client, in the daemon's
//! frame check and in every `open`; the segment append checksums only
//! records whose CRC its caller does not supply.

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

/// Bytes per lane, a power of two: the join multiplies by `x^(8 * LANE)` =
/// `x^2048`.
const LANE: usize = 256;

/// Slicing steps per lane.
const LANE_STEPS: usize = LANE / 16;

/// `x^0` in the reflected representation, where register bit `i` is the
/// coefficient of `x^(31 - i)`.
const ONE: u32 = 1 << 31;

/// The carry-less product of two 32-bit polynomials: integer
/// multiplications of the operands with every fourth bit kept, so no carry
/// reaches the next kept bit (a column sums at most 8 ones).
const fn clmul(a: u32, b: u32) -> u64 {
    const M: [u64; 4] = [
        0x1111_1111_1111_1111,
        0x2222_2222_2222_2222,
        0x4444_4444_4444_4444,
        0x8888_8888_8888_8888,
    ];
    let (a, b) = (a as u64, b as u64);
    let (a0, a1, a2, a3) = (a & M[0], a & M[1], a & M[2], a & M[3]);
    let (b0, b1, b2, b3) = (b & M[0], b & M[1], b & M[2], b & M[3]);
    let z0 = (a0 * b0) ^ (a1 * b3) ^ (a2 * b2) ^ (a3 * b1);
    let z1 = (a0 * b1) ^ (a1 * b0) ^ (a2 * b3) ^ (a3 * b2);
    let z2 = (a0 * b2) ^ (a1 * b1) ^ (a2 * b0) ^ (a3 * b3);
    let z3 = (a0 * b3) ^ (a1 * b2) ^ (a2 * b1) ^ (a3 * b0);
    (z0 & M[0]) | (z1 & M[1]) | (z2 & M[2]) | (z3 & M[3])
}

/// `a · b mod P` for reflected registers. After the product is shifted up
/// one bit, its high word holds the terms below `x^32` and its low word
/// `g` stands for `g · x^32`, which is `g` moved through four zero bytes.
const fn mul(a: u32, b: u32) -> u32 {
    let p = clmul(a, b) << 1;
    let g = p as u32;
    (p >> 32) as u32
        ^ TABLES[3][(g & 0xFF) as usize]
        ^ TABLES[2][((g >> 8) & 0xFF) as usize]
        ^ TABLES[1][((g >> 16) & 0xFF) as usize]
        ^ TABLES[0][(g >> 24) as usize]
}

/// `POW[k][d]` is `x^(8 · d · 256^k) mod P`: the register after
/// `d · 256^k` zero bytes from `ONE`.
const POW: [[u32; 256]; 8] = build_pow();

const fn build_pow() -> [[u32; 256]; 8] {
    let mut pow = [[0u32; 256]; 8];
    let mut k = 0;
    while k < 8 {
        pow[k][0] = ONE;
        pow[k][1] = if k == 0 {
            // x^8: one zero byte.
            (ONE >> 8) ^ TABLES[0][(ONE & 0xFF) as usize]
        } else {
            mul(pow[k - 1][255], pow[k - 1][1])
        };
        let mut d = 2;
        while d < 256 {
            pow[k][d] = mul(pow[k][d - 1], pow[k][1]);
            d += 1;
        }
        k += 1;
    }
    pow
}

/// `shift(crc, n)`: the register after `n` zero bytes, `crc · x^(8n) mod
/// P`, one multiply per nonzero byte of `n`.
fn shift(mut crc: u32, n: usize) -> u32 {
    for (k, digit) in (n as u64).to_le_bytes().into_iter().enumerate() {
        if digit != 0 {
            crc = mul(crc, POW[k][usize::from(digit)]);
        }
    }
    crc
}

/// `JOIN[k][b]` is the register after `LANE` zero bytes from the register
/// `b << 8k`: `shift(_, LANE)` as a table, for the four-lane join.
const JOIN: [[u32; 256]; 4] = build_join();

const fn build_join() -> [[u32; 256]; 4] {
    let lane = POW[1][LANE / 256];
    let mut join = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            join[k][b] = mul((b as u32) << (8 * k), lane);
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

/// The CRC-32 of `A ‖ B` from `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = |B|`, without reading either (zlib's `crc32_combine`).
///
/// The combination is an XOR, so it also strips a prefix:
/// `crc32_combine(crc32(A), crc32(A ‖ B), |B|)` is `crc32(B)`. The daemon
/// derives an upload's record CRC that way from the frame CRC it verified
/// and the few header bytes before the record.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    shift(crc_a, len_b) ^ crc_b
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

    /// `a · b mod P` one bit at a time (zlib's `multmodp`): the reference
    /// for the carry-less `mul`.
    fn mul_reference(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        for bit in (0..32).rev() {
            if a & (1 << bit) != 0 {
                product ^= b;
            }
            b = if b & 1 == 1 { (b >> 1) ^ POLY } else { b >> 1 };
        }
        product
    }

    #[test]
    fn carry_less_multiply_matches_the_bit_serial_product() {
        let words = noise(8 * 512);
        for pair in words.chunks_exact(8) {
            let a = u32::from_le_bytes([pair[0], pair[1], pair[2], pair[3]]);
            let b = u32::from_le_bytes([pair[4], pair[5], pair[6], pair[7]]);
            for (a, b) in [(a, b), (a, ONE), (ONE, b), (a, 0), (!0, b)] {
                assert_eq!(mul(a, b), mul_reference(a, b), "{a:#010x} · {b:#010x}");
            }
        }
    }

    #[test]
    fn shift_matches_zero_bytes_and_squaring_at_any_length() {
        // Against the register run through n zero bytes, for every n up to
        // two lanes.
        let zeros = vec![0u8; 2 * LANE];
        for crc in [ONE, 0x1234_5678, !0] {
            for n in 0..=zeros.len() {
                assert_eq!(
                    shift(crc, n),
                    update(crc, &zeros[..n]),
                    "crc {crc:#x} n {n}"
                );
            }
        }
        // Past that, against x^(8n) by square-and-multiply on the
        // bit-serial product, for lengths up to 2^64 - 1.
        let pow = |n: u64| {
            let (mut acc, mut base, mut n) = (ONE, POW[0][1], n);
            while n != 0 {
                if n & 1 == 1 {
                    acc = mul_reference(acc, base);
                }
                base = mul_reference(base, base);
                n >>= 1;
            }
            acc
        };
        let lens = noise(8 * 64);
        for (i, chunk) in lens.chunks_exact(8).enumerate() {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(chunk);
            // Lengths of every bit width from 1 to 64.
            let n = u64::from_le_bytes(bytes) >> i | 1 << (63 - i);
            let crc = 0x9E37_79B9 ^ i as u32;
            assert_eq!(shift(crc, n as usize), mul_reference(crc, pow(n)), "n {n}");
        }
    }

    /// The record lengths of the `ingest` benchmark (532, 1044, 2068 and
    /// 4116 bytes), either side of one to four lanes, and the edges.
    const REST_LENS: [usize; 16] = [
        0, 1, 7, 8, 255, 256, 532, 1023, 1024, 1025, 1044, 2047, 2048, 2049, 2068, 4116,
    ];

    #[test]
    fn a_message_tail_crc_derives_from_the_whole_and_its_prefix() {
        // An upload payload is a 3-23 byte request header and the record
        // bytes; the record's CRC comes from the frame CRC and the header.
        let buf = noise(23 + 4116 + 8);
        for offset in 0..8 {
            for prefix in 0..=23 {
                for rest in REST_LENS {
                    let message = &buf[offset..offset + prefix + rest];
                    let derived = crc32_combine(crc32(&message[..prefix]), crc32(message), rest);
                    assert_eq!(
                        derived,
                        reference(&message[prefix..]),
                        "offset {offset} prefix {prefix} rest {rest}"
                    );
                }
            }
        }
    }

    #[test]
    fn combine_joins_random_splits() {
        let buf = noise(3 * 4096);
        let cuts = noise(2 * 200);
        for pair in cuts.chunks_exact(2) {
            let len = usize::from(pair[0]) * 47 % buf.len();
            let cut = usize::from(pair[1]) * len / 255;
            let (a, b) = buf[..len].split_at(cut);
            assert_eq!(
                crc32_combine(crc32(a), crc32(b), b.len()),
                crc32(&buf[..len]),
                "len {len} cut {cut}"
            );
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
