//! Binary encoding of traffic records (version 1).
//!
//! ```text
//! u64 location | u32 period | u64 bitmap length (bits) | packed bitmap bytes
//! ```
//!
//! All integers little-endian. The bitmap bytes use
//! [`ptm_core::Bitmap::to_bytes`]'s stable layout, which
//! [`encode_record_into`] writes word by word straight into the caller's
//! buffer (the wire frame on the client, the segment frame on the daemon);
//! [`encode_record`] wraps it for callers that want the payload alone.
//!
//! [`decode_record`] checks the length prefix, the power-of-two size, the
//! byte count and that no bit beyond the size is set, then wraps the
//! bitmap that [`ptm_core::Bitmap::from_bytes`] built, one word per 8
//! bytes, in a record with [`TrafficRecord::from_bitmap`]. Decoding
//! therefore counts no `core.encode.*` metric: those count RSU-side
//! encodes.

use ptm_core::bitmap::Bitmap;
use ptm_core::encoding::LocationId;
use ptm_core::record::{PeriodId, TrafficRecord};

/// Storage-layer errors.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A frame failed its CRC check at the given byte offset.
    CorruptFrame {
        /// Byte offset of the frame header in the file.
        offset: u64,
    },
    /// The record payload inside a (checksum-valid) frame is malformed.
    MalformedRecord {
        /// Why the payload could not be decoded.
        reason: String,
    },
    /// The file does not start with the archive magic/version.
    BadHeader,
    /// The store directory has no manifest, yet a segment file in it holds
    /// a complete frame: the manifest was lost, and opening would sweep
    /// acked records as orphans. Nothing is changed.
    MissingManifest {
        /// A segment file (`seg-<id>.ptms`) that holds a frame.
        segment: u64,
    },
    /// A record size in the payload is not a power of two.
    BadBitmapSize(usize),
    /// A failed commit could not be rolled back; the store refuses
    /// appends until it is reopened, which truncates the torn tail and
    /// clears the wedge.
    Wedged,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(err) => write!(f, "archive i/o error: {err}"),
            Self::CorruptFrame { offset } => write!(f, "corrupt frame at offset {offset}"),
            Self::MalformedRecord { reason } => write!(f, "malformed record: {reason}"),
            Self::BadHeader => write!(f, "not a ptm archive (bad magic or version)"),
            Self::MissingManifest { segment } => write!(
                f,
                "store has no MANIFEST but segment {segment} holds frames; refusing to open"
            ),
            Self::BadBitmapSize(size) => write!(f, "bitmap size {size} is not a power of two"),
            Self::Wedged => write!(f, "archive wedged after failed rollback; reopen required"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(raw)
}

fn le_u64(bytes: &[u8]) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(raw)
}

/// Encodes a record payload (no framing) into a new buffer.
pub fn encode_record(record: &TrafficRecord) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(record, &mut out);
    out
}

/// Appends a record payload (no framing) to `out`: the key and length,
/// then the bitmap written straight from its words. The wire encoder and
/// the segment append call this on the buffer that ships the bytes, so a
/// record is packed once per hop.
pub fn encode_record_into(record: &TrafficRecord, out: &mut Vec<u8>) {
    out.reserve(20 + record.len().div_ceil(8));
    out.extend_from_slice(&record.location().get().to_le_bytes());
    out.extend_from_slice(&record.period().get().to_le_bytes());
    out.extend_from_slice(&(record.len() as u64).to_le_bytes());
    record.bitmap().write_bytes(out);
}

/// Reads just the `(location, period)` key from an encoded payload without
/// decoding the bitmap — the segment store's per-location read filters
/// frames with this and decodes only the ones it keeps.
///
/// # Errors
///
/// [`StoreError::MalformedRecord`] if the payload is shorter than the
/// fixed-width key prefix.
pub fn peek_key(payload: &[u8]) -> Result<(LocationId, PeriodId), StoreError> {
    if payload.len() < 20 {
        return Err(StoreError::MalformedRecord {
            reason: format!("{} byte payload", payload.len()),
        });
    }
    Ok((
        LocationId::new(le_u64(&payload[0..8])),
        PeriodId::new(le_u32(&payload[8..12])),
    ))
}

/// Decodes a record payload.
///
/// # Errors
///
/// [`StoreError::MalformedRecord`] for truncated or inconsistent payloads;
/// [`StoreError::BadBitmapSize`] for non-power-of-two record sizes.
pub fn decode_record(payload: &[u8]) -> Result<TrafficRecord, StoreError> {
    if payload.len() < 20 {
        return Err(StoreError::MalformedRecord {
            reason: format!("{} byte payload", payload.len()),
        });
    }
    let location = le_u64(&payload[0..8]);
    let period = le_u32(&payload[8..12]);
    let len = le_u64(&payload[12..20]) as usize;
    if !len.is_power_of_two() {
        return Err(StoreError::BadBitmapSize(len));
    }
    let expected_bytes = len.div_ceil(8);
    let rest = &payload[20..];
    if rest.len() != expected_bytes {
        return Err(StoreError::MalformedRecord {
            reason: format!("bitmap needs {expected_bytes} bytes, found {}", rest.len()),
        });
    }
    let bitmap = Bitmap::from_bytes(len, rest).map_err(|err| StoreError::MalformedRecord {
        reason: format!("bitmap rejected: {err}"),
    })?;
    TrafficRecord::from_bitmap(LocationId::new(location), PeriodId::new(period), bitmap)
        .map_err(|_| StoreError::BadBitmapSize(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptm_core::encoding::{EncodingScheme, VehicleSecrets};
    use ptm_core::params::BitmapSize;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_record(seed: u64, m: usize, vehicles: usize) -> TrafficRecord {
        let scheme = EncodingScheme::new(seed, 3);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut record = TrafficRecord::new(
            LocationId::new(12),
            PeriodId::new(3),
            BitmapSize::new(m).expect("pow2"),
        );
        for _ in 0..vehicles {
            let v = VehicleSecrets::generate(&mut rng, 3);
            record.encode(&scheme, &v);
        }
        record
    }

    #[test]
    fn roundtrip() {
        // Every m = 2^k from a 1-bit map through sub-word sizes and the
        // benchmark's 4096..32768 to 65536; load factor about 2.
        for k in 0..=16u32 {
            let m = 1usize << k;
            let record = sample_record(u64::from(k) + 1, m, m.div_ceil(2));
            let bytes = encode_record(&record);
            assert_eq!(bytes.len(), 20 + m.div_ceil(8), "m {m}");
            let back = decode_record(&bytes).expect("roundtrip");
            assert_eq!(back, record, "m {m}");
        }
    }

    /// Appended after bytes already in the buffer, the payload is the key,
    /// then bit `i` as bit `i % 8` of byte `i / 8`, packed here one bit at
    /// a time, for every size from one bit to 2^15.
    #[test]
    fn encode_record_into_matches_a_per_bit_packing() {
        for k in 0..=15u32 {
            let m = 1usize << k;
            let record = sample_record(u64::from(k) + 40, m, m.div_ceil(3));
            let mut want = vec![0xA5u8; 3];
            want.extend_from_slice(&12u64.to_le_bytes());
            want.extend_from_slice(&3u32.to_le_bytes());
            want.extend_from_slice(&(m as u64).to_le_bytes());
            let mut bits = vec![0u8; m.div_ceil(8)];
            for i in (0..m).filter(|&i| record.bitmap().get(i)) {
                bits[i / 8] |= 1 << (i % 8);
            }
            want.extend_from_slice(&bits);
            let mut out = vec![0xA5u8; 3];
            encode_record_into(&record, &mut out);
            assert_eq!(out, want, "m {m}");
        }
    }

    /// The codec is canonical: re-encoding any payload the decoder accepts
    /// gives back the same bytes. The daemon relies on it when it archives
    /// a record under the CRC it derived from the wire bytes. Random keys
    /// and bitmap bytes for every m = 2^0..=2^16, with the bits past m in
    /// a sub-byte map left zero (the decoder refuses them otherwise).
    #[test]
    fn decoded_payloads_re_encode_to_the_same_bytes() {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0DEC);
        for k in 0..=16u32 {
            let m = 1usize << k;
            for _ in 0..4 {
                let mut payload = Vec::with_capacity(20 + m.div_ceil(8));
                payload.extend_from_slice(&rng.gen::<u64>().to_le_bytes());
                payload.extend_from_slice(&rng.gen::<u32>().to_le_bytes());
                payload.extend_from_slice(&(m as u64).to_le_bytes());
                payload.extend((0..m.div_ceil(8)).map(|_| rng.gen::<u8>()));
                if m < 8 {
                    payload[20] &= (1u8 << m) - 1;
                }
                let record = decode_record(&payload).expect("a valid payload");
                assert_eq!(encode_record(&record), payload, "m {m}");
            }
        }
    }

    #[test]
    fn set_bit_beyond_len_is_malformed() {
        for m in [1usize, 2, 4] {
            let record = sample_record(9, m, 0);
            for bit in m..8 {
                let mut bytes = encode_record(&record);
                bytes[20] |= 1 << bit;
                assert!(
                    matches!(
                        decode_record(&bytes),
                        Err(StoreError::MalformedRecord { .. })
                    ),
                    "m {m} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        let record = sample_record(2, 2048, 500);
        let bytes = encode_record(&record);
        for cut in [0usize, 10, 19, bytes.len() - 1] {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn non_power_of_two_size_rejected() {
        let record = sample_record(3, 2048, 500);
        let mut bytes = encode_record(&record);
        bytes[12..20].copy_from_slice(&1000u64.to_le_bytes());
        assert!(matches!(
            decode_record(&bytes),
            Err(StoreError::BadBitmapSize(1000))
        ));
    }

    #[test]
    fn error_display() {
        let err = StoreError::CorruptFrame { offset: 42 };
        assert!(err.to_string().contains("42"));
        let err = StoreError::BadHeader;
        assert!(err.to_string().contains("magic"));
    }
}
