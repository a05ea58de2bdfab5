//! The Gorilla stream encoders: delta-of-delta timestamps, XOR floats.
//! Their one decoder is the word-at-a-time kernel in [`crate::block`].
//!
//! Both codecs are *lossless bit-for-bit*: timestamps use wrapping `i64`
//! arithmetic so pathological series spanning the full integer range still
//! roundtrip, and values are compared and stored as raw IEEE-754 bit
//! patterns so NaN payloads, signed zeroes and infinities all survive.

use crate::bitstream::BitWriter;

/// Encoder state for a delta-of-delta timestamp stream.
///
/// Code table (prefix → payload), chosen for nanosecond timestamps where
/// consecutive deltas of a regularly-sampled sensor are equal:
///
/// | prefix  | payload       | delta-of-delta range      |
/// |---------|---------------|---------------------------|
/// | `0`     | —             | 0                         |
/// | `10`    | 7 bits        | −63 ..= 64                |
/// | `110`   | 9 bits        | −255 ..= 256              |
/// | `1110`  | 12 bits       | −2047 ..= 2048            |
/// | `11110` | 32 bits       | −(2³¹−1) ..= 2³¹          |
/// | `11111` | 64 bits       | anything else             |
///
/// The first timestamp is stored verbatim (64 bits); the first delta is
/// encoded through the same table against an implicit previous delta of 0.
#[derive(Debug, Default, Clone)]
pub struct TsEncoder {
    prev_ts: i64,
    prev_delta: i64,
    count: u64,
}

impl TsEncoder {
    /// Fresh encoder.
    pub fn new() -> TsEncoder {
        TsEncoder::default()
    }

    /// Append one timestamp.
    pub fn push(&mut self, w: &mut BitWriter, ts: i64) {
        if self.count == 0 {
            w.write_bits(ts as u64, 64);
        } else {
            let delta = ts.wrapping_sub(self.prev_ts);
            let dod = delta.wrapping_sub(self.prev_delta);
            write_dod(w, dod);
            self.prev_delta = delta;
        }
        self.prev_ts = ts;
        self.count += 1;
    }
}

fn write_dod(w: &mut BitWriter, dod: i64) {
    if dod == 0 {
        w.write_bit(false);
    } else if (-63..=64).contains(&dod) {
        w.write_bits(0b10, 2);
        w.write_bits((dod + 63) as u64, 7);
    } else if (-255..=256).contains(&dod) {
        w.write_bits(0b110, 3);
        w.write_bits((dod + 255) as u64, 9);
    } else if (-2047..=2048).contains(&dod) {
        w.write_bits(0b1110, 4);
        w.write_bits((dod + 2047) as u64, 12);
    } else if (-(i32::MAX as i64)..=(1 << 31)).contains(&dod) {
        w.write_bits(0b11110, 5);
        w.write_bits((dod + i32::MAX as i64) as u64, 32);
    } else {
        w.write_bits(0b11111, 5);
        w.write_bits(dod as u64, 64);
    }
}

/// Encoder state for an XOR-compressed `f64` stream.
///
/// Each value is XORed against the previous value's bit pattern:
///
/// * `0` — identical to the previous value,
/// * `10` — the XOR's meaningful bits fit the previous leading/trailing
///   window: emit just those bits,
/// * `11` — new window: 5 bits of leading-zero count (clamped to 31),
///   6 bits of `meaningful_bits − 1`, then the meaningful bits.
#[derive(Debug, Default, Clone)]
pub struct ValEncoder {
    prev_bits: u64,
    leading: u8,
    trailing: u8,
    window_set: bool,
    count: u64,
}

impl ValEncoder {
    /// Fresh encoder.
    pub fn new() -> ValEncoder {
        ValEncoder::default()
    }

    /// Append one value.
    pub fn push(&mut self, w: &mut BitWriter, value: f64) {
        let bits = value.to_bits();
        if self.count == 0 {
            w.write_bits(bits, 64);
        } else {
            let xor = bits ^ self.prev_bits;
            if xor == 0 {
                w.write_bit(false);
            } else {
                w.write_bit(true);
                let lz = (xor.leading_zeros() as u8).min(31);
                let tz = xor.trailing_zeros() as u8;
                if self.window_set && lz >= self.leading && tz >= self.trailing {
                    let meaningful = 64 - self.leading - self.trailing;
                    w.write_bit(false);
                    w.write_bits(xor >> self.trailing, meaningful);
                } else {
                    let meaningful = 64 - lz - tz;
                    w.write_bit(true);
                    w.write_bits(lz as u64, 5);
                    w.write_bits((meaningful - 1) as u64, 6);
                    w.write_bits(xor >> tz, meaningful);
                    self.leading = lz;
                    self.trailing = tz;
                    self.window_set = true;
                }
            }
        }
        self.prev_bits = bits;
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{BitReader, TsDecoder, ValDecoder};

    fn roundtrip_ts(input: &[i64]) {
        let mut w = BitWriter::new();
        let mut enc = TsEncoder::new();
        for &ts in input {
            enc.push(&mut w, ts);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        let mut dec = TsDecoder::new();
        let out: Vec<i64> = (0..input.len()).map(|_| dec.next(&mut r).unwrap()).collect();
        assert_eq!(out, input);
    }

    fn roundtrip_vals(input: &[f64]) {
        let mut w = BitWriter::new();
        let mut enc = ValEncoder::new();
        for &v in input {
            enc.push(&mut w, v);
        }
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        let mut dec = ValDecoder::new();
        for &v in input {
            let got = dec.next(&mut r).unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn regular_timestamps_compress_to_bits() {
        let input: Vec<i64> =
            (0..1000).map(|i| 1_600_000_000_000_000_000 + i * 1_000_000_000).collect();
        let mut w = BitWriter::new();
        let mut enc = TsEncoder::new();
        for &ts in &input {
            enc.push(&mut w, ts);
        }
        // 64 bits header + 1 large first delta + ~1 bit per step
        assert!(w.bit_len() < 64 + 70 + 1000 * 2);
        roundtrip_ts(&input);
    }

    #[test]
    fn irregular_and_extreme_timestamps() {
        roundtrip_ts(&[0]);
        roundtrip_ts(&[i64::MIN, i64::MAX, 0, -1, 1]);
        roundtrip_ts(&[5, 5, 5, 5]);
        roundtrip_ts(&[100, 90, 80, 1_000_000, -7]);
    }

    #[test]
    fn constant_values_cost_one_bit() {
        let input = vec![42.5f64; 500];
        let mut w = BitWriter::new();
        let mut enc = ValEncoder::new();
        for &v in &input {
            enc.push(&mut w, v);
        }
        assert_eq!(w.bit_len(), 64 + 499);
        roundtrip_vals(&input);
    }

    #[test]
    fn special_float_values() {
        roundtrip_vals(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0]);
        roundtrip_vals(&[f64::from_bits(0x7ff8_dead_beef_0001), 1.0]); // NaN payload
        roundtrip_vals(&[f64::MIN_POSITIVE, f64::MAX, f64::EPSILON]);
    }

    #[test]
    fn slowly_varying_values_beat_raw() {
        let input: Vec<f64> = (0..1000).map(|i| 240.0 + (i as f64 * 0.01).sin()).collect();
        let mut w = BitWriter::new();
        let mut enc = ValEncoder::new();
        for &v in &input {
            enc.push(&mut w, v);
        }
        assert!(w.bit_len() < 1000 * 64, "XOR stream must beat raw f64s");
        roundtrip_vals(&input);
    }
}
