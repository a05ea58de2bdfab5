//! Self-describing compressed series and blocks.
//!
//! Two framing levels share the same Gorilla payload:
//!
//! * a **series** — `[flags u8][count u32 LE][data…]` — used where the
//!   sensor is identified out of band (an MQTT topic, an SSTable run),
//! * a **block** — a series prefixed with `[magic "DCBK"][version u8]
//!   [sid u128 LE][min_ts i64 LE][max_ts i64 LE]` — fully self-describing,
//!   used for standalone storage and interchange.
//!
//! `flags` bit 0 is the **raw fallback**: when the compressed bitstream
//! would be no smaller than the fixed-width representation (16 bytes per
//! reading: `i64` timestamp then `f64` value, little-endian), the encoder
//! stores fixed-width records instead.  Pathological series (random
//! timestamps, white-noise values) therefore cost at most `5 + 16·n` bytes.

use crate::bitstream::BitWriter;
use crate::gorilla::{TsEncoder, ValEncoder};

/// Magic bytes opening a [`Block`].
pub const BLOCK_MAGIC: &[u8; 4] = b"DCBK";
/// Current block format version.
pub const BLOCK_VERSION: u8 = 1;
/// Series flag: payload is fixed-width records, not a Gorilla bitstream.
pub const FLAG_RAW: u8 = 0b0000_0001;
/// Bytes of one fixed-width `(ts, value)` record.
pub const RAW_RECORD_BYTES: usize = 16;
/// Bytes of the series framing (`flags` + `count`).
pub const SERIES_HEADER_BYTES: usize = 5;
/// Bytes of the block framing in front of the series.
pub const BLOCK_HEADER_BYTES: usize = 4 + 1 + 16 + 8 + 8;

/// Decode failure causes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic / version byte.
    BadHeader,
    /// The payload ended before `count` readings were decoded.
    Truncated,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad compressed-series header"),
            DecodeError::Truncated => write!(f, "truncated compressed series"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Compress `readings` into the series framing, appending to `out`.
///
/// Timestamps need not be sorted or distinct; the codec is order-preserving
/// and lossless either way.  Falls back to fixed-width records when the
/// Gorilla streams do not win (see module docs).
pub fn encode_series_into(readings: &[(i64, f64)], out: &mut Vec<u8>) {
    let mut w = BitWriter::with_capacity(readings.len() * 4);
    let mut ts_enc = TsEncoder::new();
    let mut val_enc = ValEncoder::new();
    for &(ts, value) in readings {
        ts_enc.push(&mut w, ts);
        val_enc.push(&mut w, value);
    }
    let compressed = w.finish();
    let raw_len = readings.len() * RAW_RECORD_BYTES;
    if compressed.len() >= raw_len && !readings.is_empty() {
        out.push(FLAG_RAW);
        out.extend_from_slice(&(readings.len() as u32).to_le_bytes());
        for &(ts, value) in readings {
            out.extend_from_slice(&ts.to_le_bytes());
            out.extend_from_slice(&value.to_bits().to_le_bytes());
        }
    } else {
        out.push(0);
        out.extend_from_slice(&(readings.len() as u32).to_le_bytes());
        out.extend_from_slice(&compressed);
    }
}

/// Compress `readings` into a standalone series buffer.
pub fn encode_series(readings: &[(i64, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SERIES_HEADER_BYTES + readings.len() * 4);
    encode_series_into(readings, &mut out);
    out
}

/// Decode a series produced by [`encode_series`].
///
/// # Errors
/// [`DecodeError::BadHeader`] on short/unknown framing,
/// [`DecodeError::Truncated`] when the payload runs out early.
pub fn decode_series(buf: &[u8]) -> Result<Vec<(i64, f64)>, DecodeError> {
    let (readings, used) = decode_series_prefix(buf)?;
    // standalone series may carry bit-padding but not whole trailing bytes
    if buf.len() > used {
        return Err(DecodeError::BadHeader);
    }
    Ok(readings)
}

/// Decode a series from the front of `buf`, returning the readings and the
/// number of bytes consumed (used when series are concatenated).
///
/// # Errors
/// See [`decode_series`].
pub fn decode_series_prefix(buf: &[u8]) -> Result<(Vec<(i64, f64)>, usize), DecodeError> {
    let mut out = Vec::new();
    let used = decode_series_into(buf, &mut out, |ts, value| (ts, value))?;
    Ok((out, used))
}

/// Decode a series from the front of `buf`, appending `map(ts, value)` per
/// reading to `out` (callers decode straight into their own reading type),
/// and return the bytes consumed — the one decoder behind every wrapper
/// here.  On error `out` is left as it was.
///
/// # Errors
/// See [`decode_series`].
pub fn decode_series_into<T>(
    buf: &[u8],
    out: &mut Vec<T>,
    mut map: impl FnMut(i64, f64) -> T,
) -> Result<usize, DecodeError> {
    if buf.len() < SERIES_HEADER_BYTES {
        return Err(DecodeError::BadHeader);
    }
    let flags = buf[0];
    if flags & !FLAG_RAW != 0 {
        return Err(DecodeError::BadHeader);
    }
    let count = u32::from_le_bytes(buf[1..5].try_into().expect("4 bytes")) as usize;
    let body = &buf[SERIES_HEADER_BYTES..];
    if flags & FLAG_RAW != 0 {
        let need = count * RAW_RECORD_BYTES;
        if body.len() < need {
            return Err(DecodeError::Truncated);
        }
        out.reserve(count);
        for rec in body[..need].chunks_exact(RAW_RECORD_BYTES) {
            let ts = i64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
            let value = f64::from_bits(u64::from_le_bytes(rec[8..].try_into().expect("8 bytes")));
            out.push(map(ts, value));
        }
        return Ok(SERIES_HEADER_BYTES + need);
    }
    // `count` is untrusted (network payloads land here): a reading costs at
    // least 2 bits, so cap the pre-allocation by what `body` could hold and
    // let the per-reading Truncated check reject the lie
    out.reserve(count.min(body.len().saturating_mul(4)));
    let start = out.len();
    match decode_gorilla(body, count, out, &mut map) {
        Some(used_bits) => Ok(SERIES_HEADER_BYTES + used_bits.div_ceil(8)),
        None => {
            out.truncate(start);
            Err(DecodeError::Truncated)
        }
    }
}

/// The 64 bits starting `at` bits into `data`, MSB first, zero-filled past
/// its end (the decoder rejects any reading that ends past it).
#[inline(always)]
fn peek(data: &[u8], at: usize) -> u64 {
    let (byte, shift) = (at / 8, (at % 8) as u32);
    let word = match data.get(byte..byte + 8) {
        Some(b) => u64::from_be_bytes(b.try_into().expect("8 bytes")),
        None => {
            let (tail, mut b) = (data.get(byte..).unwrap_or_default(), [0u8; 8]);
            b[..tail.len()].copy_from_slice(tail);
            u64::from_be_bytes(b)
        }
    };
    // branch-free: at shift 0 the ninth byte shifts out entirely
    (word << shift) | (u64::from(data.get(byte + 8).copied().unwrap_or(0)) >> (8 - shift))
}

/// Decode `count` Gorilla readings from `body` into `out`: the bits used,
/// or `None` when the body ends early or names an impossible XOR window.
/// Both code tables are in [`crate::gorilla`]; every prefix dispatches
/// from one 64-bit peek `w` — the delta-of-delta prefix on its count of
/// leading ones, the XOR control on the top two bits.
fn decode_gorilla<T>(
    body: &[u8],
    count: usize,
    out: &mut Vec<T>,
    map: &mut impl FnMut(i64, f64) -> T,
) -> Option<usize> {
    if count == 0 {
        return Some(0);
    }
    let end = body.len() * 8;
    // the first reading is stored verbatim: 64-bit timestamp, 64-bit value
    let (mut ts, mut bits, mut pos) = (peek(body, 0) as i64, peek(body, 64), 128);
    if pos > end {
        return None;
    }
    out.push(map(ts, f64::from_bits(bits)));
    // the `n` bits `off` past `pos` (reloaded when they stick out of `w`)
    let field = |w: u64, pos: usize, off: u32, n: u32| {
        (if off + n <= 64 { w << off } else { peek(body, pos + off as usize) }) >> (64 - n)
    };
    let (mut delta, mut leading, mut trailing) = (0i64, 0u32, 0u32);
    for _ in 1..count {
        let w = peek(body, pos);
        let (dod, used) = match (!w).leading_zeros() {
            0 => (0, 1),
            1 => (field(w, pos, 2, 7) as i64 - 63, 9),
            2 => (field(w, pos, 3, 9) as i64 - 255, 12),
            3 => (field(w, pos, 4, 12) as i64 - 2047, 16),
            4 => (field(w, pos, 5, 32) as i64 - i32::MAX as i64, 37),
            _ => (field(w, pos, 5, 64) as i64, 69),
        };
        pos += used;
        delta = delta.wrapping_add(dod);
        ts = ts.wrapping_add(delta);
        let w = peek(body, pos);
        if w >> 63 == 0 {
            pos += 1;
        } else {
            let mut off = 2;
            if (w >> 62) & 1 == 1 {
                let lead = ((w >> 57) & 31) as u32;
                let meaningful = ((w >> 51) & 63) as u32 + 1;
                // malformed streams can claim an impossible window
                if lead + meaningful > 64 {
                    return None;
                }
                (leading, trailing, off) = (lead, 64 - lead - meaningful, 13);
            }
            let meaningful = 64 - leading - trailing;
            bits ^= field(w, pos, off, meaningful) << trailing;
            pos += (off + meaningful) as usize;
        }
        if pos > end {
            return None;
        }
        out.push(map(ts, f64::from_bits(bits)));
    }
    Some(pos)
}

// ------------------------------------------------------------------ frames

/// Bytes of the frame header in front of the series
/// (`min_ts` + `max_ts` + `series byte length` + `checksum`).
pub const FRAME_HEADER_BYTES: usize = 8 + 8 + 4 + 4;

/// FNV-1a seed / step for the frame checksum: frames live on disk for
/// years, and the checksum lets a loader reject bit rot or torn writes
/// *without* decompressing the payload — so the lazily-loaded `DCDBSST3`
/// format surfaces corruption as `InvalidData` at load time, never as a
/// panic at query time.  It covers the
/// `min_ts`/`max_ts`/`series_len` header fields and the series bytes.
const FNV_SEED: u32 = 0x811C_9DC5;

fn fnv1a(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Metadata of a framed series, readable without decoding the payload —
/// the pushdown header that lets query engines skip non-intersecting
/// compressed runs (`DCDBSST3` blocks are frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Smallest timestamp in the frame (0 when empty).
    pub min_ts: i64,
    /// Largest timestamp in the frame (0 when empty).
    pub max_ts: i64,
    /// Number of readings in the frame.
    pub count: usize,
    /// Total encoded size: header plus series bytes.
    pub total_len: usize,
}

/// Compress `readings` into the frame framing
/// (`[min_ts i64 LE][max_ts i64 LE][series_len u32 LE][checksum u32 LE]
/// [series]`), appending to `out`.
pub fn encode_framed_into(readings: &[(i64, f64)], out: &mut Vec<u8>) {
    let (min_ts, max_ts) =
        readings.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &(ts, _)| (lo.min(ts), hi.max(ts)));
    let (min_ts, max_ts) = if readings.is_empty() { (0, 0) } else { (min_ts, max_ts) };
    let header_at = out.len();
    out.extend_from_slice(&min_ts.to_le_bytes());
    out.extend_from_slice(&max_ts.to_le_bytes());
    out.extend_from_slice(&[0u8; 8]); // series length + checksum, patched below
    let series_at = out.len();
    encode_series_into(readings, out);
    let series_len = (out.len() - series_at) as u32;
    out[header_at + 16..header_at + 20].copy_from_slice(&series_len.to_le_bytes());
    let checksum = fnv1a(fnv1a(FNV_SEED, &out[header_at..header_at + 20]), &out[series_at..]);
    out[header_at + 20..header_at + 24].copy_from_slice(&checksum.to_le_bytes());
}

/// Read a frame's pushdown header from the front of `buf` without decoding
/// the payload.  The series bytes are checksum-verified (no decompression),
/// so a successful peek means a later [`decode_framed_prefix`] cannot fail
/// on anything but a deliberately forged payload.
///
/// # Errors
/// [`DecodeError::BadHeader`] on short framing or a checksum mismatch,
/// [`DecodeError::Truncated`] when `buf` ends before the advertised series
/// bytes.
pub fn peek_frame(buf: &[u8]) -> Result<FrameInfo, DecodeError> {
    if buf.len() < FRAME_HEADER_BYTES + SERIES_HEADER_BYTES {
        return Err(DecodeError::BadHeader);
    }
    let min_ts = i64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
    let max_ts = i64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    let series_len = u32::from_le_bytes(buf[16..20].try_into().expect("4 bytes")) as usize;
    let checksum = u32::from_le_bytes(buf[20..24].try_into().expect("4 bytes"));
    if buf.len() < FRAME_HEADER_BYTES + series_len || series_len < SERIES_HEADER_BYTES {
        return Err(DecodeError::Truncated);
    }
    let computed = fnv1a(
        fnv1a(FNV_SEED, &buf[..20]),
        &buf[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + series_len],
    );
    if computed != checksum {
        return Err(DecodeError::BadHeader);
    }
    let count = u32::from_le_bytes(
        buf[FRAME_HEADER_BYTES + 1..FRAME_HEADER_BYTES + 5].try_into().expect("4 bytes"),
    ) as usize;
    Ok(FrameInfo { min_ts, max_ts, count, total_len: FRAME_HEADER_BYTES + series_len })
}

/// Decode a frame from the front of `buf`, returning the readings and the
/// bytes consumed (frames concatenate, like SSTable blocks).
///
/// # Errors
/// See [`peek_frame`] and [`decode_series`].
pub fn decode_framed_prefix(buf: &[u8]) -> Result<(Vec<(i64, f64)>, usize), DecodeError> {
    let mut out = Vec::new();
    let used = decode_framed_into(buf, &mut out, |ts, value| (ts, value))?;
    Ok((out, used))
}

/// [`decode_framed_prefix`] appending `map(ts, value)` per reading to
/// `out` (see [`decode_series_into`]); the frame checksum is verified on
/// every call.  On error `out` is left as it was.
///
/// # Errors
/// See [`peek_frame`] and [`decode_series`].
pub fn decode_framed_into<T>(
    buf: &[u8],
    out: &mut Vec<T>,
    map: impl FnMut(i64, f64) -> T,
) -> Result<usize, DecodeError> {
    let info = peek_frame(buf)?;
    let series = &buf[FRAME_HEADER_BYTES..info.total_len];
    let start = out.len();
    let used = decode_series_into(series, out, map)?;
    if out.len() - start != info.count || used > series.len() {
        out.truncate(start);
        return Err(DecodeError::Truncated);
    }
    Ok(info.total_len)
}

/// A decoded self-describing block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Raw 128-bit sensor id the block belongs to.
    pub sid: u128,
    /// Smallest timestamp in the block (0 when empty).
    pub min_ts: i64,
    /// Largest timestamp in the block (0 when empty).
    pub max_ts: i64,
    /// The readings, in encode order.
    pub readings: Vec<(i64, f64)>,
}

impl Block {
    /// Compress `readings` for `sid` into a self-describing block.
    pub fn encode(sid: u128, readings: &[(i64, f64)]) -> Vec<u8> {
        let (min_ts, max_ts) = readings
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &(ts, _)| (lo.min(ts), hi.max(ts)));
        let (min_ts, max_ts) = if readings.is_empty() { (0, 0) } else { (min_ts, max_ts) };
        let mut out =
            Vec::with_capacity(BLOCK_HEADER_BYTES + SERIES_HEADER_BYTES + readings.len() * 4);
        out.extend_from_slice(BLOCK_MAGIC);
        out.push(BLOCK_VERSION);
        out.extend_from_slice(&sid.to_le_bytes());
        out.extend_from_slice(&min_ts.to_le_bytes());
        out.extend_from_slice(&max_ts.to_le_bytes());
        encode_series_into(readings, &mut out);
        out
    }

    /// Decode a block produced by [`Block::encode`].
    ///
    /// # Errors
    /// See [`decode_series`].
    pub fn decode(buf: &[u8]) -> Result<Block, DecodeError> {
        if buf.len() < BLOCK_HEADER_BYTES || &buf[..4] != BLOCK_MAGIC || buf[4] != BLOCK_VERSION {
            return Err(DecodeError::BadHeader);
        }
        let sid = u128::from_le_bytes(buf[5..21].try_into().expect("16 bytes"));
        let min_ts = i64::from_le_bytes(buf[21..29].try_into().expect("8 bytes"));
        let max_ts = i64::from_le_bytes(buf[29..37].try_into().expect("8 bytes"));
        let readings = decode_series(&buf[BLOCK_HEADER_BYTES..])?;
        Ok(Block { sid, min_ts, max_ts, readings })
    }
}

/// Compression ratio of a series vs. its fixed-width representation
/// (`raw / compressed`; > 1 means the codec won).
pub fn compression_ratio(readings: &[(i64, f64)]) -> f64 {
    if readings.is_empty() {
        return 1.0;
    }
    let raw = (readings.len() * RAW_RECORD_BYTES) as f64;
    let compressed = encode_series(readings).len() as f64;
    raw / compressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn power_series(n: usize) -> Vec<(i64, f64)> {
        (0..n)
            .map(|i| (1_600_000_000_000_000_000 + i as i64 * 1_000_000_000, 240.0 + (i % 7) as f64))
            .collect()
    }

    #[test]
    fn series_roundtrip_and_ratio() {
        let s = power_series(1000);
        let enc = encode_series(&s);
        assert!(enc.len() * 4 < s.len() * RAW_RECORD_BYTES, "expected ≥ 4× ratio");
        assert_eq!(decode_series(&enc).unwrap(), s);
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(decode_series(&encode_series(&[])).unwrap(), vec![]);
        let one = vec![(i64::MIN, f64::NAN)];
        let dec = decode_series(&encode_series(&one)).unwrap();
        assert_eq!(dec.len(), 1);
        assert_eq!(dec[0].0, i64::MIN);
        assert_eq!(dec[0].1.to_bits(), one[0].1.to_bits());
    }

    #[test]
    fn pathological_series_uses_raw_fallback() {
        // hash-random timestamps and bit-noise values defeat both codecs
        let mix = |x: u64| {
            let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 29;
            z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 32)
        };
        let s: Vec<(i64, f64)> =
            (0..64u64).map(|i| (mix(2 * i) as i64, f64::from_bits(mix(2 * i + 1)))).collect();
        let enc = encode_series(&s);
        assert_eq!(enc[0] & FLAG_RAW, FLAG_RAW, "expected raw fallback");
        assert_eq!(enc.len(), SERIES_HEADER_BYTES + s.len() * RAW_RECORD_BYTES);
        let dec = decode_series(&enc).unwrap();
        assert_eq!(dec.len(), s.len());
        for (a, b) in dec.iter().zip(&s) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn block_header_carries_metadata() {
        let s = power_series(100);
        let sid = 0xDEAD_BEEF_0000_0001u128;
        let buf = Block::encode(sid, &s);
        let block = Block::decode(&buf).unwrap();
        assert_eq!(block.sid, sid);
        assert_eq!(block.min_ts, s[0].0);
        assert_eq!(block.max_ts, s.last().unwrap().0);
        assert_eq!(block.readings, s);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_series(&[]).is_err());
        assert!(decode_series(&[0xFF, 0, 0, 0, 0]).is_err());
        assert!(Block::decode(b"NOPE").is_err());
        let mut buf = Block::encode(1, &power_series(10));
        buf.truncate(buf.len() - 3);
        assert_eq!(Block::decode(&buf), Err(DecodeError::Truncated));
    }

    #[test]
    fn truncated_count_is_error_not_panic() {
        let mut enc = encode_series(&power_series(50));
        // claim more readings than the bitstream holds
        enc[1..5].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(decode_series(&enc), Err(DecodeError::Truncated));
    }

    #[test]
    fn prefix_decode_reports_consumed_bytes() {
        let a = power_series(20);
        let b = vec![(5i64, 1.0f64), (6, 2.0)];
        let mut buf = encode_series(&a);
        let a_len = buf.len();
        buf.extend_from_slice(&encode_series(&b));
        let (got_a, used) = decode_series_prefix(&buf).unwrap();
        assert_eq!(got_a, a);
        assert_eq!(used, a_len);
        let (got_b, _) = decode_series_prefix(&buf[used..]).unwrap();
        assert_eq!(got_b, b);
    }

    #[test]
    fn frame_peek_without_decode() {
        let s = power_series(500);
        let mut buf = Vec::new();
        encode_framed_into(&s, &mut buf);
        let info = peek_frame(&buf).unwrap();
        assert_eq!(info.min_ts, s[0].0);
        assert_eq!(info.max_ts, s.last().unwrap().0);
        assert_eq!(info.count, s.len());
        assert_eq!(info.total_len, buf.len());
        let (dec, used) = decode_framed_prefix(&buf).unwrap();
        assert_eq!(dec, s);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn frames_concatenate() {
        let a = power_series(100);
        let b = vec![(7i64, 1.0f64)];
        let mut buf = Vec::new();
        encode_framed_into(&a, &mut buf);
        let a_len = buf.len();
        encode_framed_into(&b, &mut buf);
        let info = peek_frame(&buf).unwrap();
        assert_eq!(info.total_len, a_len);
        let (got_a, used) = decode_framed_prefix(&buf).unwrap();
        assert_eq!(got_a, a);
        let (got_b, _) = decode_framed_prefix(&buf[used..]).unwrap();
        assert_eq!(got_b, b);
    }

    #[test]
    fn frame_rejects_garbage() {
        assert!(peek_frame(&[]).is_err());
        assert!(peek_frame(&[0u8; 10]).is_err());
        let mut buf = Vec::new();
        encode_framed_into(&power_series(50), &mut buf);
        buf.truncate(buf.len() - 3);
        assert_eq!(peek_frame(&buf), Err(DecodeError::Truncated));
        // a frame whose series count bytes were tampered with
        let mut buf = Vec::new();
        encode_framed_into(&power_series(50), &mut buf);
        buf[FRAME_HEADER_BYTES + 1..FRAME_HEADER_BYTES + 5].copy_from_slice(&9999u32.to_le_bytes());
        assert!(decode_framed_prefix(&buf).is_err());
    }

    #[test]
    fn frame_checksum_catches_bit_rot() {
        let mut buf = Vec::new();
        encode_framed_into(&power_series(200), &mut buf);
        assert!(peek_frame(&buf).is_ok());
        // flip one payload bit: detected by peek alone, no decode needed
        let mid = FRAME_HEADER_BYTES + (buf.len() - FRAME_HEADER_BYTES) / 2;
        buf[mid] ^= 0x10;
        assert_eq!(peek_frame(&buf), Err(DecodeError::BadHeader));
        assert!(decode_framed_prefix(&buf).is_err());
    }

    #[test]
    fn empty_frame() {
        let mut buf = Vec::new();
        encode_framed_into(&[], &mut buf);
        let info = peek_frame(&buf).unwrap();
        assert_eq!((info.min_ts, info.max_ts, info.count), (0, 0, 0));
        assert_eq!(decode_framed_prefix(&buf).unwrap().0, vec![]);
    }

    #[test]
    fn ratio_helper() {
        assert!(compression_ratio(&power_series(1000)) >= 4.0);
        assert_eq!(compression_ratio(&[]), 1.0);
    }
}
