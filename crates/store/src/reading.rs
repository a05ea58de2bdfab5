//! The fundamental data tuple: `<sensor, timestamp, reading>`.

/// Timestamps are nanoseconds since the UNIX epoch, like DCDB's.
pub type Timestamp = i64;

/// Bytes of one uncompressed `<sensor, timestamp, reading>` tuple (`u128`
/// sid + `i64` timestamp + `f64` value) — the yardstick every compression
/// ratio is quoted against.
pub const RAW_READING_BYTES: usize = 32;

/// One sensor reading.
///
/// DCDB enforces this format across the whole framework: every sensor's data
/// is a time series of `(timestamp, numerical value)` pairs (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Nanoseconds since the UNIX epoch.
    pub ts: Timestamp,
    /// The numerical value.
    pub value: f64,
}

impl Reading {
    /// Construct a reading.
    pub fn new(ts: Timestamp, value: f64) -> Self {
        Reading { ts, value }
    }
}

/// A half-open time range `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeRange {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl TimeRange {
    /// Build a range; `start` must not exceed `end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        assert!(start <= end, "invalid time range {start}..{end}");
        TimeRange { start, end }
    }

    /// The range covering all representable time.
    pub fn all() -> Self {
        TimeRange { start: Timestamp::MIN, end: Timestamp::MAX }
    }

    /// Does the range contain `ts`?
    pub fn contains(&self, ts: Timestamp) -> bool {
        ts >= self.start && ts < self.end
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &TimeRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// The index span of `readings` (sorted by timestamp) that falls in
    /// the range.
    pub fn span_in(&self, readings: &[Reading]) -> std::ops::Range<usize> {
        let lo = readings.partition_point(|r| r.ts < self.start);
        lo..lo + readings[lo..].partition_point(|r| r.ts < self.end)
    }

    /// Duration in nanoseconds (saturating).
    pub fn duration(&self) -> i64 {
        self.end.saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_is_half_open() {
        let r = TimeRange::new(10, 20);
        assert!(r.contains(10));
        assert!(r.contains(19));
        assert!(!r.contains(20));
        assert!(!r.contains(9));
    }

    #[test]
    fn overlap_cases() {
        let r = TimeRange::new(10, 20);
        assert!(r.overlaps(&TimeRange::new(19, 30)));
        assert!(r.overlaps(&TimeRange::new(0, 11)));
        assert!(r.overlaps(&TimeRange::new(12, 15)));
        assert!(!r.overlaps(&TimeRange::new(20, 30)));
        assert!(!r.overlaps(&TimeRange::new(0, 10)));
    }

    #[test]
    #[should_panic(expected = "invalid time range")]
    fn inverted_range_panics() {
        TimeRange::new(5, 1);
    }

    #[test]
    fn all_contains_everything() {
        let r = TimeRange::all();
        assert!(r.contains(0));
        assert!(r.contains(Timestamp::MIN));
        assert!(r.contains(Timestamp::MAX - 1));
    }
}
