//! The bit-at-a-time decoder the word-at-a-time kernel in [`crate::block`]
//! replaced, kept as the test oracle: the differential properties below
//! demand bit-identical readings, the same `Ok`/`Err` and the same bytes
//! consumed on valid series, every truncation of them and random garbage.

use proptest::prelude::*;

use crate::block::{
    decode_series_prefix, encode_series, DecodeError, FLAG_RAW, RAW_RECORD_BYTES,
    SERIES_HEADER_BYTES,
};

/// Sequential bit source over a byte slice; mirrors [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `data`.
    pub fn new(data: &'a [u8]) -> BitReader<'a> {
        BitReader { data, pos: 0 }
    }

    /// Bits left before the buffer is exhausted (including tail padding).
    pub fn remaining_bits(&self) -> usize {
        self.data.len() * 8 - self.pos
    }

    /// Read one bit; `None` past the end.
    #[inline]
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.data.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `n ≤ 64` bits MSB-first into the low bits of the result.
    /// `None` past the end *and* for `n > 64` — decode-side widths can come
    /// from corrupted input, so the bound is a real error path, not an
    /// assert compiled out in release.
    #[inline]
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        if n > 64 || self.remaining_bits() < n as usize {
            return None;
        }
        let mut out = 0u64;
        let mut left = n as u32;
        while left > 0 {
            let byte = self.data[self.pos / 8];
            let avail = 8 - (self.pos % 8) as u32;
            let take = left.min(avail);
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            out = (out << take) | chunk as u64;
            self.pos += take as usize;
            left -= take;
        }
        Some(out)
    }
}

/// Decoder matching [`TsEncoder`].
#[derive(Debug, Default, Clone)]
pub struct TsDecoder {
    prev_ts: i64,
    prev_delta: i64,
    count: u64,
}

impl TsDecoder {
    /// Fresh decoder.
    pub fn new() -> TsDecoder {
        TsDecoder::default()
    }

    /// Read the next timestamp; `None` on a truncated stream.
    pub fn next(&mut self, r: &mut BitReader<'_>) -> Option<i64> {
        let ts = if self.count == 0 {
            r.read_bits(64)? as i64
        } else {
            let dod = read_dod(r)?;
            let delta = self.prev_delta.wrapping_add(dod);
            self.prev_delta = delta;
            self.prev_ts.wrapping_add(delta)
        };
        self.prev_ts = ts;
        self.count += 1;
        Some(ts)
    }
}

fn read_dod(r: &mut BitReader<'_>) -> Option<i64> {
    if !r.read_bit()? {
        return Some(0);
    }
    if !r.read_bit()? {
        return Some(r.read_bits(7)? as i64 - 63);
    }
    if !r.read_bit()? {
        return Some(r.read_bits(9)? as i64 - 255);
    }
    if !r.read_bit()? {
        return Some(r.read_bits(12)? as i64 - 2047);
    }
    if !r.read_bit()? {
        return Some(r.read_bits(32)? as i64 - i32::MAX as i64);
    }
    Some(r.read_bits(64)? as i64)
}

/// Decoder matching [`ValEncoder`].
#[derive(Debug, Default, Clone)]
pub struct ValDecoder {
    prev_bits: u64,
    leading: u8,
    trailing: u8,
    count: u64,
}

impl ValDecoder {
    /// Fresh decoder.
    pub fn new() -> ValDecoder {
        ValDecoder::default()
    }

    /// Read the next value; `None` on a truncated stream.
    pub fn next(&mut self, r: &mut BitReader<'_>) -> Option<f64> {
        let bits = if self.count == 0 {
            r.read_bits(64)?
        } else if !r.read_bit()? {
            self.prev_bits
        } else {
            if r.read_bit()? {
                let leading = r.read_bits(5)? as u8;
                let meaningful = r.read_bits(6)? as u8 + 1;
                // malformed streams can claim an impossible window
                let used = leading as u32 + meaningful as u32;
                if used > 64 {
                    return None;
                }
                self.leading = leading;
                self.trailing = (64 - used) as u8;
            }
            let meaningful = 64 - self.leading - self.trailing;
            let xor = r.read_bits(meaningful)? << self.trailing;
            self.prev_bits ^ xor
        };
        self.prev_bits = bits;
        self.count += 1;
        Some(f64::from_bits(bits))
    }
}

/// The series decode as it was before the word-at-a-time kernel.
fn reference_prefix(buf: &[u8]) -> Result<(Vec<(i64, f64)>, usize), DecodeError> {
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
        let out = body[..need]
            .chunks_exact(RAW_RECORD_BYTES)
            .map(|rec| {
                let ts = i64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
                let bits = u64::from_le_bytes(rec[8..].try_into().expect("8 bytes"));
                (ts, f64::from_bits(bits))
            })
            .collect();
        return Ok((out, SERIES_HEADER_BYTES + need));
    }
    let mut r = BitReader::new(body);
    let mut ts_dec = TsDecoder::new();
    let mut val_dec = ValDecoder::new();
    let mut out = Vec::with_capacity(count.min(body.len().saturating_mul(4)));
    for _ in 0..count {
        let ts = ts_dec.next(&mut r).ok_or(DecodeError::Truncated)?;
        let value = val_dec.next(&mut r).ok_or(DecodeError::Truncated)?;
        out.push((ts, value));
    }
    let used_bits = body.len() * 8 - r.remaining_bits();
    Ok((out, SERIES_HEADER_BYTES + used_bits.div_ceil(8)))
}

/// Both decoders agree on `buf`: readings bit for bit, the error, and the
/// bytes consumed.
fn agree(buf: &[u8]) -> Result<(), TestCaseError> {
    let bits = |r: Result<(Vec<(i64, f64)>, usize), DecodeError>| {
        r.map(|(v, used)| (v.iter().map(|&(ts, x)| (ts, x.to_bits())).collect::<Vec<_>>(), used))
    };
    prop_assert_eq!(bits(decode_series_prefix(buf)), bits(reference_prefix(buf)));
    Ok(())
}

/// Every bit pattern: NaN payloads, ±∞, ±0, subnormals.
fn any_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (0u8..6).prop_map(
            |k| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 240.5][k as usize]
        ),
    ]
}

/// Series that exercise every timestamp code and value control: regular
/// spacing with jitter that hits each delta-of-delta width, wrapping
/// timestamps, repeated values and arbitrary bit patterns (which also push
/// the encoder into its raw fallback).
fn series() -> impl Strategy<Value = Vec<(i64, f64)>> {
    let step = prop_oneof![
        Just(0i64),
        -64i64..65,
        -256i64..257,
        -2048i64..2049,
        -(1i64 << 31)..(1i64 << 31),
        any::<i64>(),
    ];
    let value = prop_oneof![
        Just(None),
        any_value().prop_map(Some),
        (-8i64..8).prop_map(|d| Some(240.0 + d as f64 * 0.25))
    ];
    (any::<i64>(), any::<i64>(), prop::collection::vec((step, value), 0..300)).prop_map(
        |(start, interval, steps)| {
            let (mut ts, mut delta, mut v) = (start, interval, 0.0);
            steps
                .into_iter()
                .map(|(dod, next)| {
                    delta = delta.wrapping_add(dod);
                    ts = ts.wrapping_add(delta);
                    v = next.unwrap_or(v);
                    (ts, v)
                })
                .collect()
        },
    )
}

proptest! {
    #[test]
    fn kernel_matches_reference_on_valid_series(s in series()) {
        let enc = encode_series(&s);
        agree(&enc)?;
        // and it is the roundtrip, not just agreement
        let (got, used) = decode_series_prefix(&enc).expect("valid series decodes");
        prop_assert_eq!(used, enc.len());
        prop_assert_eq!(got.len(), s.len());
        for (g, w) in got.iter().zip(&s) {
            prop_assert_eq!((g.0, g.1.to_bits()), (w.0, w.1.to_bits()));
        }
    }

    #[test]
    fn kernel_matches_reference_on_every_truncation(s in series()) {
        let mut enc = encode_series(&s);
        for len in 0..enc.len() {
            agree(&enc[..len])?;
        }
        // trailing bytes past the series are not consumed
        enc.extend_from_slice(&[0xFF, 0x00, 0xA5]);
        agree(&enc)?;
    }

    #[test]
    fn kernel_matches_reference_on_garbage(
        head in (0u8..2, 0u32..600),
        body in prop::collection::vec(any::<u8>(), 0..400),
    ) {
        // a plausible header in front of random bits reaches deep into
        // the bitstream decoder; fully random bytes cover the framing
        let mut buf = vec![head.0];
        buf.extend_from_slice(&head.1.to_le_bytes());
        buf.extend_from_slice(&body);
        agree(&buf)?;
        agree(&body)?;
    }
}
