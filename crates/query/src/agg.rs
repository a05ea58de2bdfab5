//! Windowed aggregation operators.
//!
//! One implementation of windowed statistics for the whole workspace:
//! [`Moments`] is the streaming accumulator (count/min/max/sum + Welford
//! mean/variance, with Chan's parallel merge), [`WindowedAgg`] folds one or
//! many time series into fixed windows, and [`AggFn`] names the operator
//! set exposed by the CLI (`dcdbquery --agg`), the REST endpoints and the
//! Grafana data source.
//!
//! Fan-in (aggregating every sensor under a SID prefix) feeds each series
//! into the same window states via *mergeable partials* — series are never
//! concatenated, so memory stays proportional to the number of windows (for
//! `quantile`, to the readings per window).
//!
//! Windows are aligned to absolute time (`floor(ts / window) * window`), so
//! the same window boundaries come back regardless of the queried range —
//! what dashboard refreshes need to cache.

use std::collections::BTreeMap;

use dcdb_store::reading::Reading;

/// A windowed aggregation function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggFn {
    /// Arithmetic mean of the window's values.
    Avg,
    /// Smallest value.
    Min,
    /// Largest value.
    Max,
    /// Sum of values.
    Sum,
    /// Number of readings.
    Count,
    /// Population standard deviation.
    Stddev,
    /// The `p`-quantile (`0.0 ..= 1.0`) by nearest rank.
    Quantile(f64),
    /// Per-second rate of change `(last − first) / Δt` per window; under
    /// fan-in, the sum of per-sensor rates (the rate of the total).
    Rate,
}

impl AggFn {
    /// Parse a CLI/REST name: `avg`/`mean`, `min`, `max`, `sum`, `count`,
    /// `stddev`/`std`, `rate`, `median`, `pNN`/`pNN.N` (percentile, e.g.
    /// `p99`) or `qX` (quantile in `0..=1`, e.g. `q0.999`).
    pub fn parse(s: &str) -> Option<AggFn> {
        Some(match s {
            "avg" | "mean" => AggFn::Avg,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            "sum" => AggFn::Sum,
            "count" => AggFn::Count,
            "stddev" | "std" => AggFn::Stddev,
            "rate" => AggFn::Rate,
            "median" => AggFn::Quantile(0.5),
            _ => {
                if let Some(pct) = s.strip_prefix('p') {
                    let pct: f64 = pct.parse().ok()?;
                    if !(0.0..=100.0).contains(&pct) {
                        return None;
                    }
                    AggFn::Quantile(pct / 100.0)
                } else if let Some(q) = s.strip_prefix('q') {
                    let q: f64 = q.parse().ok()?;
                    if !(0.0..=1.0).contains(&q) {
                        return None;
                    }
                    AggFn::Quantile(q)
                } else {
                    return None;
                }
            }
        })
    }
}

impl std::fmt::Display for AggFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AggFn::Avg => write!(f, "avg"),
            AggFn::Min => write!(f, "min"),
            AggFn::Max => write!(f, "max"),
            AggFn::Sum => write!(f, "sum"),
            AggFn::Count => write!(f, "count"),
            AggFn::Stddev => write!(f, "stddev"),
            AggFn::Quantile(q) => write!(f, "q{q}"),
            AggFn::Rate => write!(f, "rate"),
        }
    }
}

/// Parse a human duration into nanoseconds: `90`, `250ns`, `10us`, `5ms`,
/// `30s`, `5m`, `12h`, `7d` (a bare number is nanoseconds).
pub fn parse_duration_ns(s: &str) -> Option<i64> {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    if split == 0 {
        return None;
    }
    let value: i64 = s[..split].parse().ok()?;
    let scale: i64 = match &s[split..] {
        "" | "ns" => 1,
        "us" => 1_000,
        "ms" => 1_000_000,
        "s" => 1_000_000_000,
        "m" => 60 * 1_000_000_000,
        "h" => 3_600 * 1_000_000_000,
        "d" => 86_400 * 1_000_000_000,
        _ => return None,
    };
    value.checked_mul(scale)
}

/// Streaming count/min/max/sum/mean/variance accumulator — Welford's
/// algorithm, with Chan's merge for combining partials across series.
///
/// `dcdb_core::ops` delegates its full-series statistics to this, and the
/// windowed `stddev` path folds through it too.  Note the two mean
/// flavours: [`Moments::mean`] is the numerically-robust *Welford* mean
/// (what `ops::stats` reports), while the windowed `avg` aggregation and
/// the live `WindowedStats` operator both report `sum / n` — those two
/// agree with each other bit-for-bit, but may differ from the Welford
/// mean in the last bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Moments { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 }
    }
}

impl Moments {
    /// An empty accumulator.
    pub fn new() -> Moments {
        Moments::default()
    }

    /// Fold one value in.
    pub fn push(&mut self, value: f64) {
        self.n += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let delta = value - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Merge another accumulator in (Chan's parallel combination).
    pub fn merge(&mut self, other: &Moments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = (self.n + other.n) as f64;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n;
        self.mean += delta * other.n as f64 / n;
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of values folded in.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic (Welford) mean; 0 for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest value (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest value (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Count/sum/min/max without the Welford mean/variance chain — the
/// accumulator behind `avg`/`min`/`max`/`sum`/`count` windows.  Welford's
/// running mean costs a serially-dependent float division per reading
/// (~3× the rest of the fold combined); only `stddev` actually needs it,
/// so the common dashboard aggregations use this instead and `avg`
/// finishes as `sum / n` (exactly what the interpolated path and the live
/// `WindowedStats` operator report).
#[derive(Debug, Clone, Copy)]
struct Simple {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Simple {
    fn new() -> Simple {
        Simple { n: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    #[inline]
    fn push(&mut self, value: f64) {
        self.n += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn merge(&mut self, other: &Simple) {
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Per-window state; which variant is live depends on the [`AggFn`].
#[derive(Debug, Clone)]
enum WinState {
    Simple(Simple),
    Moments(Moments),
    Values(Vec<f64>),
    /// Sum of per-series rates already folded in.
    Rate(f64),
}

/// Folds one or many time series into fixed windows for one [`AggFn`].
///
/// Feed each series with [`WindowedAgg::feed_series`] (readings must be in
/// timestamp order, as [`crate::SeriesIter`] yields them), then call
/// [`WindowedAgg::finish`].  Windows with no data produce no output row.
#[derive(Debug)]
pub struct WindowedAgg {
    agg: AggFn,
    window: i64,
    /// Keyed by window start; `i128` so `floor(ts/window)*window` cannot
    /// overflow near `i64::MIN`.
    windows: BTreeMap<i128, WinState>,
}

impl WindowedAgg {
    /// A windowed aggregation with `window_ns > 0`.
    ///
    /// # Panics
    /// Panics when `window_ns <= 0`.
    pub fn new(agg: AggFn, window_ns: i64) -> WindowedAgg {
        assert!(window_ns > 0, "window must be positive, got {window_ns}");
        WindowedAgg { agg, window: window_ns, windows: BTreeMap::new() }
    }

    fn window_start(&self, ts: i64) -> i128 {
        (ts as i128).div_euclid(self.window as i128) * self.window as i128
    }

    /// The aggregation this accumulator computes.
    pub fn agg(&self) -> AggFn {
        self.agg
    }

    /// The window size, ns.
    pub fn window_ns(&self) -> i64 {
        self.window
    }

    /// Merge another accumulator in — the partial-combination step behind
    /// grouped/parallel execution: each group (or worker/chunk) folds its
    /// own series into a private `WindowedAgg`, and the partials merge
    /// window by window (`min`/`max`/`count` and quantile value sets
    /// re-merge exactly; `avg`/`sum` combine their sums, `stddev` via
    /// Chan's method, `rate` by summing per-series rates).
    ///
    /// # Panics
    /// Panics when the aggregation or window size differ.
    pub fn merge(&mut self, other: WindowedAgg) {
        assert_eq!(self.agg, other.agg, "cannot merge different aggregations");
        assert_eq!(self.window, other.window, "cannot merge different window sizes");
        for (key, state) in other.windows {
            match self.windows.entry(key) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(state);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => match (e.get_mut(), state) {
                    (WinState::Simple(a), WinState::Simple(b)) => a.merge(&b),
                    (WinState::Moments(a), WinState::Moments(b)) => a.merge(&b),
                    (WinState::Values(a), WinState::Values(b)) => a.extend(b),
                    (WinState::Rate(a), WinState::Rate(b)) => *a += b,
                    // lint: allow(no-unwrap) -- state variant is derived from
                    // the same AggFn on both sides; a mismatch cannot occur
                    _ => unreachable!("window states match the aggregation"),
                },
            }
        }
    }

    /// Fold one series in (readings in timestamp order).
    ///
    /// The hot loop hoists the per-window state out of the `BTreeMap`: an
    /// in-order series visits each window once, so the map is touched twice
    /// per *window* (take out, put back) instead of once per *reading* —
    /// the dominant cost of a warm, cache-served dashboard query.  The
    /// pushes happen against the very same accumulator states in the same
    /// order, so results are bit-identical to the naive entry-per-reading
    /// loop (out-of-order input merely re-fetches the state and stays
    /// correct too).
    pub fn feed_series(&mut self, readings: impl Iterator<Item = Reading>) {
        match self.agg {
            AggFn::Rate => {
                // per-series first/last per window, merged as a rate sum
                let window = self.window as i128;
                let mut ends: BTreeMap<i128, (Reading, Reading)> = BTreeMap::new();
                let flush =
                    |ends: &mut BTreeMap<i128, (Reading, Reading)>,
                     (key, first, last): (i128, Reading, Reading)| {
                        ends.entry(key).and_modify(|(_, l)| *l = last).or_insert((first, last));
                    };
                let mut cur: Option<(i128, Reading, Reading)> = None;
                // [cur_start, cur_end): bounds of the live window, so the
                // per-reading work is two comparisons, not an i128 division
                let (mut cur_start, mut cur_end) = (1i128, 0i128);
                for r in readings {
                    let ts = r.ts as i128;
                    if ts >= cur_start && ts < cur_end {
                        if let Some((_, _, last)) = &mut cur {
                            *last = r;
                        }
                    } else {
                        if let Some(done) = cur.take() {
                            flush(&mut ends, done);
                        }
                        let key = self.window_start(r.ts);
                        (cur_start, cur_end) = (key, key + window);
                        cur = Some((key, r, r));
                    }
                }
                if let Some(done) = cur {
                    flush(&mut ends, done);
                }
                for (key, (first, last)) in ends {
                    let dt_ns = last.ts as i128 - first.ts as i128;
                    if dt_ns <= 0 {
                        continue; // a single reading has no rate
                    }
                    let rate = (last.value - first.value) / (dt_ns as f64 / 1e9);
                    match self.windows.entry(key).or_insert(WinState::Rate(0.0)) {
                        WinState::Rate(sum) => *sum += rate,
                        // lint: allow(no-unwrap) -- entry inserted as Rate on
                        // the line above; any other variant cannot occur
                        _ => unreachable!("rate aggregation uses rate state"),
                    }
                }
            }
            agg => {
                let fresh = || match agg {
                    AggFn::Quantile(_) => WinState::Values(Vec::new()),
                    AggFn::Stddev => WinState::Moments(Moments::new()),
                    _ => WinState::Simple(Simple::new()),
                };
                let window = self.window as i128;
                let mut cur: Option<(i128, WinState)> = None;
                // live-window bounds: two comparisons per reading instead
                // of an i128 division (see the Rate arm)
                let (mut cur_start, mut cur_end) = (1i128, 0i128);
                for r in readings {
                    let ts = r.ts as i128;
                    if ts < cur_start || ts >= cur_end {
                        if let Some((k, state)) = cur.take() {
                            self.windows.insert(k, state);
                        }
                        let key = self.window_start(r.ts);
                        (cur_start, cur_end) = (key, key + window);
                        let state = self.windows.remove(&key).unwrap_or_else(fresh);
                        cur = Some((key, state));
                    }
                    match &mut cur {
                        Some((_, WinState::Simple(s))) => s.push(r.value),
                        Some((_, WinState::Moments(m))) => m.push(r.value),
                        Some((_, WinState::Values(v))) => v.push(r.value),
                        // lint: allow(no-unwrap) -- `cur` is seeded from this
                        // aggregation's own AggFn; a mismatch cannot occur
                        _ => unreachable!("window states match the aggregation"),
                    }
                }
                if let Some((k, state)) = cur {
                    self.windows.insert(k, state);
                }
            }
        }
    }

    /// Fold one in-order slice of a series in (a series may arrive as many
    /// consecutive slices) — the bulk twin of [`WindowedAgg::feed_series`],
    /// bit-identical to it.  For `avg`/`sum`/`count`/`min`/`max` the slice
    /// is cut at window boundaries with `partition_point` and each run
    /// folds in a tight loop, in push order, into only the fields `finish`
    /// reads.  The other aggregations go through `feed_series`, `rate` with
    /// each slice as a whole series — so feed rate series whole there.
    pub fn feed_slice(&mut self, readings: &[Reading]) {
        let agg = self.agg;
        if !matches!(agg, AggFn::Avg | AggFn::Sum | AggFn::Count | AggFn::Min | AggFn::Max) {
            return self.feed_series(readings.iter().copied());
        }
        let mut rest = readings;
        while let Some(first) = rest.first() {
            let key = self.window_start(first.ts);
            let end = key + self.window as i128;
            // `first` is in the window, so every run makes progress
            let (run, tail) =
                rest.split_at(1 + rest[1..].partition_point(|r| (r.ts as i128) < end));
            rest = tail;
            let state = self.windows.entry(key).or_insert_with(|| WinState::Simple(Simple::new()));
            let WinState::Simple(s) = state else {
                // lint: allow(no-unwrap) -- every state of this accumulator
                // was created from its own AggFn; a mismatch cannot occur
                unreachable!("window states match the aggregation")
            };
            s.n += run.len() as u64;
            // the very statements of `Simple::push`, so even NaN payloads match
            match agg {
                AggFn::Avg | AggFn::Sum => run.iter().for_each(|r| s.sum += r.value),
                AggFn::Min | AggFn::Max => run.iter().for_each(|r| {
                    s.min = s.min.min(r.value);
                    s.max = s.max.max(r.value);
                }),
                _ => {}
            }
        }
    }

    /// Emit one reading per non-empty window, stamped at the window start,
    /// in window order.
    pub fn finish(self) -> Vec<Reading> {
        let agg = self.agg;
        self.windows
            .into_iter()
            .map(|(key, state)| {
                let value = match (state, agg) {
                    // a window state only exists once a reading was pushed,
                    // so n >= 1 and the mean never divides by zero
                    (WinState::Simple(s), AggFn::Avg) => s.sum / s.n as f64,
                    (WinState::Simple(s), AggFn::Min) => s.min,
                    (WinState::Simple(s), AggFn::Max) => s.max,
                    (WinState::Simple(s), AggFn::Sum) => s.sum,
                    (WinState::Simple(s), AggFn::Count) => s.n as f64,
                    (WinState::Moments(m), AggFn::Stddev) => m.stddev(),
                    (WinState::Values(mut v), AggFn::Quantile(q)) => {
                        v.sort_by(f64::total_cmp);
                        let idx = (q * (v.len() - 1) as f64).round() as usize;
                        v[idx.min(v.len() - 1)]
                    }
                    (WinState::Rate(sum), AggFn::Rate) => sum,
                    // lint: allow(no-unwrap) -- every state was created from
                    // this same AggFn; a mismatched pair cannot occur
                    _ => unreachable!("window state matches the aggregation"),
                };
                // window starts below i64::MIN (only reachable for ranges
                // touching the epoch floor) clamp to the representable edge
                let ts = key.clamp(i64::MIN as i128, i64::MAX as i128) as i64;
                Reading { ts, value }
            })
            .collect()
    }
}

/// One-shot helper: windowed aggregation of a single series.
pub fn window_aggregate(
    readings: impl Iterator<Item = Reading>,
    window_ns: i64,
    agg: AggFn,
) -> Vec<Reading> {
    let mut w = WindowedAgg::new(agg, window_ns);
    w.feed_series(readings);
    w.finish()
}

/// One-shot helper: full-range (single window spanning `range`) statistics
/// of a series, as a [`Moments`] accumulator.
pub fn moments_of(readings: impl Iterator<Item = Reading>) -> Moments {
    let mut m = Moments::new();
    for r in readings {
        m.push(r.value);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(points: &[(i64, f64)]) -> Vec<Reading> {
        points.iter().map(|&(ts, value)| Reading { ts, value }).collect()
    }

    #[test]
    fn parse_agg_names() {
        assert_eq!(AggFn::parse("avg"), Some(AggFn::Avg));
        assert_eq!(AggFn::parse("mean"), Some(AggFn::Avg));
        assert_eq!(AggFn::parse("stddev"), Some(AggFn::Stddev));
        assert_eq!(AggFn::parse("p99"), Some(AggFn::Quantile(0.99)));
        let Some(AggFn::Quantile(q)) = AggFn::parse("p99.9") else { panic!("p99.9") };
        assert!((q - 0.999).abs() < 1e-12);
        assert_eq!(AggFn::parse("q0.5"), Some(AggFn::Quantile(0.5)));
        assert_eq!(AggFn::parse("median"), Some(AggFn::Quantile(0.5)));
        assert_eq!(AggFn::parse("rate"), Some(AggFn::Rate));
        assert_eq!(AggFn::parse("p101"), None);
        assert_eq!(AggFn::parse("q1.5"), None);
        assert_eq!(AggFn::parse("bogus"), None);
    }

    #[test]
    fn parse_durations() {
        assert_eq!(parse_duration_ns("90"), Some(90));
        assert_eq!(parse_duration_ns("250ns"), Some(250));
        assert_eq!(parse_duration_ns("10us"), Some(10_000));
        assert_eq!(parse_duration_ns("5ms"), Some(5_000_000));
        assert_eq!(parse_duration_ns("30s"), Some(30_000_000_000));
        assert_eq!(parse_duration_ns("5m"), Some(300_000_000_000));
        assert_eq!(parse_duration_ns("2h"), Some(7_200_000_000_000));
        assert_eq!(parse_duration_ns("1d"), Some(86_400_000_000_000));
        assert_eq!(parse_duration_ns("x5m"), None);
        assert_eq!(parse_duration_ns("5y"), None);
        assert_eq!(parse_duration_ns(""), None);
        assert_eq!(parse_duration_ns("999999999999d"), None, "overflow rejected");
    }

    #[test]
    fn moments_match_naive() {
        let vals = [1.0, 2.0, 3.0, 4.0];
        let mut m = Moments::new();
        for v in vals {
            m.push(v);
        }
        assert_eq!(m.count(), 4);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.sum(), 10.0);
        assert!((m.mean() - 2.5).abs() < 1e-12);
        assert!((m.variance() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn moments_merge_equals_sequential() {
        let vals: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 50.0).collect();
        let mut whole = Moments::new();
        for &v in &vals {
            whole.push(v);
        }
        let (a, b) = vals.split_at(37);
        let mut left = Moments::new();
        let mut right = Moments::new();
        for &v in a {
            left.push(v);
        }
        for &v in b {
            right.push(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.stddev() - whole.stddev()).abs() < 1e-9);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
        // merging into empty adopts the other side exactly
        let mut empty = Moments::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn windowed_avg_epoch_aligned() {
        // windows [0,10), [10,20): alignment must not depend on first ts
        let s = series(&[(4, 1.0), (6, 3.0), (14, 10.0)]);
        let out = window_aggregate(s.into_iter(), 10, AggFn::Avg);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, 0);
        assert_eq!(out[0].value, 2.0);
        assert_eq!(out[1].ts, 10);
        assert_eq!(out[1].value, 10.0);
    }

    #[test]
    fn windowed_count_min_max_sum() {
        let s = series(&[(0, 5.0), (1, -2.0), (2, 7.0), (10, 1.0)]);
        let count = window_aggregate(s.clone().into_iter(), 10, AggFn::Count);
        assert_eq!(count[0].value, 3.0);
        assert_eq!(count[1].value, 1.0);
        let min = window_aggregate(s.clone().into_iter(), 10, AggFn::Min);
        assert_eq!(min[0].value, -2.0);
        let max = window_aggregate(s.clone().into_iter(), 10, AggFn::Max);
        assert_eq!(max[0].value, 7.0);
        let sum = window_aggregate(s.into_iter(), 10, AggFn::Sum);
        assert_eq!(sum[0].value, 10.0);
    }

    #[test]
    fn windowed_quantile_nearest_rank() {
        let s: Vec<Reading> = (0..101).map(|i| Reading { ts: i, value: i as f64 }).collect();
        let p99 = window_aggregate(s.clone().into_iter(), 1_000, AggFn::Quantile(0.99));
        assert_eq!(p99[0].value, 99.0);
        let med = window_aggregate(s.into_iter(), 1_000, AggFn::Quantile(0.5));
        assert_eq!(med[0].value, 50.0);
    }

    #[test]
    fn windowed_rate_per_second() {
        // an energy counter: 100 J at t=0s, 400 J at t=2s → 150 W
        let s = series(&[(0, 100.0), (2_000_000_000, 400.0)]);
        let out = window_aggregate(s.into_iter(), 10_000_000_000, AggFn::Rate);
        assert_eq!(out.len(), 1);
        assert!((out[0].value - 150.0).abs() < 1e-9);
        // a lone reading emits no rate
        let out = window_aggregate(series(&[(0, 5.0)]).into_iter(), 10, AggFn::Rate);
        assert!(out.is_empty());
    }

    #[test]
    fn fan_in_merges_partials() {
        // two sensors, one window: avg over all readings of both
        let mut w = WindowedAgg::new(AggFn::Avg, 100);
        w.feed_series(series(&[(0, 10.0), (1, 20.0)]).into_iter());
        w.feed_series(series(&[(2, 40.0)]).into_iter());
        let out = w.finish();
        assert_eq!(out.len(), 1);
        assert!((out[0].value - (70.0 / 3.0)).abs() < 1e-12);
        // rate fan-in: sum of per-sensor rates
        let mut w = WindowedAgg::new(AggFn::Rate, 10_000_000_000);
        w.feed_series(series(&[(0, 0.0), (1_000_000_000, 100.0)]).into_iter());
        w.feed_series(series(&[(0, 0.0), (2_000_000_000, 100.0)]).into_iter());
        let out = w.finish();
        assert!((out[0].value - 150.0).abs() < 1e-9);
    }

    #[test]
    fn merged_partials_match_single_accumulator() {
        // exact aggregations re-merge bit-identically regardless of the split
        for agg in [AggFn::Min, AggFn::Max, AggFn::Count, AggFn::Quantile(0.5)] {
            let s1 = series(&[(0, 3.0), (5, -1.0), (12, 8.0)]);
            let s2 = series(&[(2, 7.0), (14, 2.0), (25, 4.0)]);
            let mut whole = WindowedAgg::new(agg, 10);
            whole.feed_series(s1.clone().into_iter());
            whole.feed_series(s2.clone().into_iter());
            let mut left = WindowedAgg::new(agg, 10);
            left.feed_series(s1.into_iter());
            let mut right = WindowedAgg::new(agg, 10);
            right.feed_series(s2.into_iter());
            left.merge(right);
            let (a, b) = (left.finish(), whole.finish());
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.ts, y.ts);
                assert_eq!(x.value.to_bits(), y.value.to_bits(), "{agg}");
            }
        }
        // moment merges agree to floating-point accuracy
        let mut whole = WindowedAgg::new(AggFn::Avg, 100);
        whole.feed_series(series(&[(0, 10.0), (1, 20.0), (2, 40.0)]).into_iter());
        let mut left = WindowedAgg::new(AggFn::Avg, 100);
        left.feed_series(series(&[(0, 10.0), (1, 20.0)]).into_iter());
        let mut right = WindowedAgg::new(AggFn::Avg, 100);
        right.feed_series(series(&[(2, 40.0)]).into_iter());
        left.merge(right);
        assert!((left.finish()[0].value - whole.finish()[0].value).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different window sizes")]
    fn merge_rejects_mismatched_windows() {
        let mut a = WindowedAgg::new(AggFn::Avg, 10);
        a.merge(WindowedAgg::new(AggFn::Avg, 20));
    }

    #[test]
    fn negative_timestamps_align() {
        // pre-epoch readings land in the [-10, 0) window, not [0, 10)
        let s = series(&[(-3, 1.0), (2, 3.0)]);
        let out = window_aggregate(s.into_iter(), 10, AggFn::Count);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, -10);
        assert_eq!(out[1].ts, 0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        WindowedAgg::new(AggFn::Avg, 0);
    }
}
