//! MSB-first bit-granular writer over a byte buffer.
//!
//! The Gorilla encoders emit variable-length codes that are not
//! byte-aligned; this module provides the minimal primitive they need:
//! append up to 64 bits at a time and pad the tail byte with zeroes on
//! [`BitWriter::finish`].  The one reader is the word-at-a-time decoder in
//! [`crate::block`].

/// Append-only bit sink.  Bits are packed MSB-first into each byte.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Free bit slots left in the final byte of `buf` (0 = byte-aligned).
    free: u8,
}

impl BitWriter {
    /// Create an empty writer.
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Create a writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> BitWriter {
        BitWriter { buf: Vec::with_capacity(bytes), free: 0 }
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> usize {
        self.buf.len() * 8 - self.free as usize
    }

    /// Append a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        if self.free == 0 {
            self.buf.push(0);
            self.free = 8;
        }
        // bits fill each byte MSB-first, so the next slot is bit `free - 1`
        let byte = self.buf.last_mut().expect("buf non-empty");
        if bit {
            *byte |= 1 << (self.free - 1);
        }
        self.free -= 1;
    }

    /// Append the low `n` bits of `value`, most significant first (`n ≤ 64`).
    ///
    /// # Panics
    /// If `n > 64` — a compiled-in check: a silently truncated write would
    /// desynchronise every later read of the stream.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u8) {
        assert!(n <= 64, "write_bits: n = {n} exceeds 64");
        let mut left = n as u32;
        while left > 0 {
            if self.free == 0 {
                self.buf.push(0);
                self.free = 8;
            }
            // move up to `free` bits of the remaining prefix into the
            // current byte's free slots
            let take = left.min(self.free as u32);
            let shift = left - take;
            let chunk = ((value >> shift) as u8) & ((1u16 << take) - 1) as u8;
            let byte = self.buf.last_mut().expect("buf non-empty");
            *byte |= chunk << (self.free as u32 - take);
            self.free -= take as u8;
            left -= take;
        }
    }

    /// Zero-pad to a byte boundary and return the buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::BitReader;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let buf = w.finish();
        assert_eq!(buf.len(), 2);
        let mut r = BitReader::new(&buf);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_fields_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 7);
        w.write_bits(0x1234_5678_9ABC_DEF0, 61);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.read_bits(7), Some(0));
        assert_eq!(r.read_bits(61), Some(0x1234_5678_9ABC_DEF0 & ((1 << 61) - 1)));
    }

    #[test]
    fn read_past_end_is_none() {
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        let buf = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(8), Some(0xAB));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn zero_width_read_is_zero() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0), Some(0));
        assert_eq!(r.remaining_bits(), 0);
    }
}
