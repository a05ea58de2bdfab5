//! # dcdb-compress
//!
//! Gorilla-style lossless time-series compression for DCDB readings
//! (delta-of-delta timestamps + XOR-compressed floats, after Pelkonen et
//! al., *"Gorilla: A Fast, Scalable, In-Memory Time Series Database"*,
//! VLDB 2015).
//!
//! Monitoring series are near-ideal compression targets: timestamps are
//! monotonic and regularly spaced (so consecutive deltas are equal and the
//! delta-of-delta is almost always the 1-bit code `0`), and values vary
//! slowly (so the XOR of consecutive IEEE-754 patterns has long runs of
//! leading/trailing zeroes).  On a fixed-interval power series this codec
//! stores a reading in ~2–4 **bits** instead of the 16–32 **bytes** of the
//! fixed-width formats used elsewhere in dcdb-rs.
//!
//! ## Layers
//!
//! * [`bitstream`] — the MSB-first [`BitWriter`],
//! * [`gorilla`] — the two stream encoders: [`TsEncoder`] (delta-of-delta,
//!   wrapping `i64` arithmetic so any timestamp sequence roundtrips) and
//!   [`ValEncoder`] (XOR floats, bit-exact for NaN payloads, ±∞ and −0.0),
//! * [`block`] — self-describing framing: [`encode_series`] /
//!   [`decode_series`] (`flags + count + payload`, with a fixed-width
//!   **raw fallback** for pathological series), [`Block`] (adds
//!   `magic + version + sid + min/max ts`) and **frames**
//!   ([`encode_framed_into`] / [`peek_frame`] / [`decode_framed_into`]) — a
//!   series prefixed with a `(min_ts, max_ts, series length)` pushdown
//!   header so query engines can skip compressed runs that do not
//!   intersect a time range *without decoding them* (the `DCDBSST3` block
//!   format) — and the one decoder, [`decode_series_into`].
//!
//! ## Wire formats
//!
//! **Series** (sensor identified out of band):
//!
//! ```text
//! [flags u8] [count u32 LE] [payload…]
//!   flags bit0 = raw fallback → payload is count × (i64 ts, f64 value) LE
//!   otherwise                → payload is the Gorilla bitstream
//! ```
//!
//! **Block** (self-describing):
//!
//! ```text
//! ["DCBK"] [version u8 = 1] [sid u128 LE] [min_ts i64 LE] [max_ts i64 LE] [series]
//! ```
//!
//! ## Integration points
//!
//! * `dcdb-store` — the `DCDBSST3` on-disk SSTable format stores each
//!   sensor's run as a sequence of frames of up to 512 readings,
//! * `dcdb-mqtt` — `payload::encode_readings_compressed` frames a series
//!   behind a 4-byte magic so the Collect Agent can negotiate per topic
//!   between fixed-width and compressed payloads,
//! * `dcdb-pusher` — `MqttOut` optionally compresses burst batches before
//!   publishing,
//! * `dcdb-bench` — the `compression` experiment and the `compress`
//!   criterion bench measure ratio and throughput on simulated series.
//!
//! ## Example
//!
//! ```
//! use dcdb_compress::{encode_series, decode_series};
//!
//! let series: Vec<(i64, f64)> =
//!     (0..100).map(|i| (i * 1_000_000_000, 240.0 + (i % 3) as f64)).collect();
//! let compressed = encode_series(&series);
//! assert!(compressed.len() < series.len() * 16 / 4); // ≥ 4× smaller
//! assert_eq!(decode_series(&compressed).unwrap(), series);
//! ```

pub mod bitstream;
pub mod block;
pub mod gorilla;

#[cfg(test)]
mod reference;

pub use bitstream::BitWriter;
pub use block::{
    compression_ratio, decode_framed_into, decode_framed_prefix, decode_series, decode_series_into,
    decode_series_prefix, encode_framed_into, encode_series, encode_series_into, peek_frame, Block,
    DecodeError, FrameInfo, BLOCK_HEADER_BYTES, BLOCK_MAGIC, BLOCK_VERSION, FLAG_RAW,
    FRAME_HEADER_BYTES, RAW_RECORD_BYTES, SERIES_HEADER_BYTES,
};
pub use gorilla::{TsEncoder, ValEncoder};
