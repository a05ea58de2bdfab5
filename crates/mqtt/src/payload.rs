//! The sensor-reading payload formats used on top of MQTT.
//!
//! Pushers publish each sensor's readings under the sensor's topic; the
//! payload is one or more `(timestamp, value)` records — more than one when
//! the Pusher accumulates readings and sends in bursts (paper §6.2.1 studies
//! bursty vs. continuous sending).  Two encodings exist, negotiated per
//! topic by the publisher's choice and detected by the subscriber:
//!
//! * **fixed-width** ([`encode_readings`]) — little-endian `i64` nanosecond
//!   timestamp followed by `f64` value, 16 bytes per reading,
//! * **compressed** ([`encode_readings_compressed`]) — the 4-byte magic
//!   [`COMPRESSED_MAGIC`] followed by a `dcdb-compress` Gorilla series
//!   (delta-of-delta timestamps + XOR floats, raw fallback included).
//!   Burst batches of regularly-sampled sensors shrink well over 4×.
//!
//! [`decode_payload`] dispatches on the magic.  A fixed-width payload can
//! start with the magic bytes — its first 4 bytes are the *low-order*
//! little-endian bytes of the first timestamp, so any `ts` with
//! `ts & 0xFFFF_FFFF == 0x315A_4344` collides — which is why detection
//! alone is not trusted: when a magic-prefixed payload fails to parse as a
//! compressed series but is a valid multiple of 16 bytes, [`decode_payload`]
//! falls back to fixed-width decoding.  A colliding payload that *also*
//! parses as a complete, length-exact compressed series is the only
//! remaining ambiguity (astronomically unlikely: flags, count and bitstream
//! length must all line up); the Collect Agent additionally records each
//! topic's negotiated encoding on first contact.

use bytes::{Buf, BufMut, Bytes};

/// Size of one encoded reading.
pub const RECORD_SIZE: usize = 16;

/// Magic prefix marking a compressed payload (`"DCZ1"`).
pub const COMPRESSED_MAGIC: &[u8; 4] = b"DCZ1";

/// How a payload was (or should be) encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadEncoding {
    /// Fixed-width 16-byte records.
    Fixed,
    /// Gorilla-compressed series behind [`COMPRESSED_MAGIC`].
    Compressed,
}

/// Encode readings into a payload.
pub fn encode_readings(readings: &[(i64, f64)]) -> Bytes {
    let mut out = Vec::with_capacity(readings.len() * RECORD_SIZE);
    encode_payload_into(readings, PayloadEncoding::Fixed, &mut out);
    Bytes::from(out)
}

/// Append the payload of `readings` in `encoding` to `out` — the bytes
/// [`encode_readings`] / [`encode_readings_compressed`] return.
pub fn encode_payload_into(readings: &[(i64, f64)], encoding: PayloadEncoding, out: &mut Vec<u8>) {
    match encoding {
        PayloadEncoding::Fixed => {
            for &(ts, value) in readings {
                out.put_i64_le(ts);
                out.put_f64_le(value);
            }
        }
        PayloadEncoding::Compressed => {
            out.extend_from_slice(COMPRESSED_MAGIC);
            dcdb_compress::encode_series_into(readings, out);
        }
    }
}

/// Decode a payload into readings.
///
/// Returns `None` when the payload length is not a multiple of
/// [`RECORD_SIZE`] (malformed).
pub fn decode_readings(payload: &[u8]) -> Option<Vec<(i64, f64)>> {
    if !payload.len().is_multiple_of(RECORD_SIZE) {
        return None;
    }
    let mut buf = payload;
    let mut out = Vec::with_capacity(payload.len() / RECORD_SIZE);
    while buf.has_remaining() {
        let ts = buf.get_i64_le();
        let value = buf.get_f64_le();
        out.push((ts, value));
    }
    Some(out)
}

/// Encode readings into a compressed payload (magic + Gorilla series).
///
/// Lossless for any `(ts, value)` sequence; a raw fallback inside the
/// series bounds pathological batches at `9 + 16·n` bytes.
pub fn encode_readings_compressed(readings: &[(i64, f64)]) -> Bytes {
    let mut out = Vec::with_capacity(4 + 5 + readings.len() * 4);
    encode_payload_into(readings, PayloadEncoding::Compressed, &mut out);
    Bytes::from(out)
}

/// Decode a compressed payload produced by [`encode_readings_compressed`].
pub fn decode_readings_compressed(payload: &[u8]) -> Option<Vec<(i64, f64)>> {
    let body = payload.strip_prefix(COMPRESSED_MAGIC)?;
    dcdb_compress::decode_series(body).ok()
}

/// Detect a payload's encoding from its framing.
pub fn detect_encoding(payload: &[u8]) -> PayloadEncoding {
    if payload.len() >= COMPRESSED_MAGIC.len() && payload.starts_with(COMPRESSED_MAGIC) {
        PayloadEncoding::Compressed
    } else {
        PayloadEncoding::Fixed
    }
}

/// Decode either payload encoding, reporting which one was seen.
///
/// Magic-prefixed payloads that fail compressed decoding fall back to
/// fixed-width decoding (see the module docs on collisions).  Returns
/// `None` on payloads malformed under both interpretations.
pub fn decode_payload(payload: &[u8]) -> Option<(PayloadEncoding, Vec<(i64, f64)>)> {
    let mut out = Vec::with_capacity(payload.len() / RECORD_SIZE);
    let encoding = decode_payload_each(payload, |ts, value| out.push((ts, value)))?;
    Some((encoding, out))
}

/// [`decode_payload`] without collecting: calls `each(ts, value)` for every
/// reading in order and returns the encoding seen.  A payload that fails to
/// decode calls nothing.
pub fn decode_payload_each(
    payload: &[u8],
    mut each: impl FnMut(i64, f64),
) -> Option<PayloadEncoding> {
    if detect_encoding(payload) == PayloadEncoding::Compressed {
        if let Some(readings) = decode_readings_compressed(payload) {
            readings.into_iter().for_each(|(ts, value)| each(ts, value));
            return Some(PayloadEncoding::Compressed);
        }
    }
    if !payload.len().is_multiple_of(RECORD_SIZE) {
        return None;
    }
    for mut record in payload.chunks_exact(RECORD_SIZE) {
        each(record.get_i64_le(), record.get_f64_le());
    }
    Some(PayloadEncoding::Fixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single() {
        let payload = encode_readings(&[(1_000_000_000, 240.5)]);
        assert_eq!(payload.len(), RECORD_SIZE);
        assert_eq!(decode_readings(&payload).unwrap(), vec![(1_000_000_000, 240.5)]);
    }

    #[test]
    fn roundtrip_burst() {
        let readings: Vec<(i64, f64)> = (0..120).map(|i| (i * 1_000, i as f64 * 0.1)).collect();
        let payload = encode_readings(&readings);
        assert_eq!(payload.len(), 120 * RECORD_SIZE);
        assert_eq!(decode_readings(&payload).unwrap(), readings);
    }

    #[test]
    fn rejects_torn_payload() {
        assert!(decode_readings(&[0u8; 15]).is_none());
        assert!(decode_readings(&[0u8; 17]).is_none());
        assert_eq!(decode_readings(&[]).unwrap(), vec![]);
    }

    #[test]
    fn special_values_survive() {
        let vals = vec![(0i64, f64::MAX), (1, f64::MIN_POSITIVE), (2, -0.0), (i64::MAX, 1e-300)];
        assert_eq!(decode_readings(&encode_readings(&vals)).unwrap(), vals);
    }

    #[test]
    fn compressed_roundtrip_and_detection() {
        let readings: Vec<(i64, f64)> =
            (0..240).map(|i| (i * 250_000_000, 240.0 + (i % 4) as f64)).collect();
        let payload = encode_readings_compressed(&readings);
        assert_eq!(detect_encoding(&payload), PayloadEncoding::Compressed);
        assert_eq!(decode_readings_compressed(&payload).unwrap(), readings);
        let (enc, decoded) = decode_payload(&payload).unwrap();
        assert_eq!(enc, PayloadEncoding::Compressed);
        assert_eq!(decoded, readings);
    }

    #[test]
    fn compressed_burst_beats_fixed_width() {
        let readings: Vec<(i64, f64)> =
            (0..120).map(|i| (i * 1_000_000_000, 52.5 + (i % 3) as f64)).collect();
        let fixed = encode_readings(&readings);
        let compressed = encode_readings_compressed(&readings);
        assert!(
            compressed.len() * 4 < fixed.len(),
            "compressed {} vs fixed {}",
            compressed.len(),
            fixed.len()
        );
    }

    #[test]
    fn decode_payload_handles_fixed_width() {
        let readings = vec![(1_000i64, 1.5), (2_000, 2.5)];
        let payload = encode_readings(&readings);
        let (enc, decoded) = decode_payload(&payload).unwrap();
        assert_eq!(enc, PayloadEncoding::Fixed);
        assert_eq!(decoded, readings);
    }

    #[test]
    fn malformed_compressed_payload_rejected() {
        assert!(decode_payload(b"DCZ1").is_none());
        assert!(decode_payload(b"DCZ1\xff\x00\x00\x00\x00").is_none());
        // a truncated compressed payload must not decode
        let payload = encode_readings_compressed(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert!(decode_readings_compressed(&payload[..payload.len() - 1]).is_none());
    }

    #[test]
    fn empty_compressed_batch() {
        let payload = encode_readings_compressed(&[]);
        assert_eq!(decode_payload(&payload).unwrap().1, vec![]);
    }

    #[test]
    fn magic_colliding_fixed_payload_falls_back() {
        // a fixed-width payload whose first timestamp's low-order LE bytes
        // spell the compressed magic: ts & 0xFFFF_FFFF == 0x315A_4344
        let readings = vec![(0x315A_4344i64, 1.5), (0x1_315A_4344i64, 2.5)];
        let payload = encode_readings(&readings);
        assert_eq!(&payload[..4], COMPRESSED_MAGIC, "test premise: collision");
        assert_eq!(detect_encoding(&payload), PayloadEncoding::Compressed);
        let (enc, decoded) = decode_payload(&payload).unwrap();
        assert_eq!(enc, PayloadEncoding::Fixed, "must fall back, not drop");
        assert_eq!(decoded, readings);
    }
}
