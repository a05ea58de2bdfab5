//! The oracle: what every response must say, worked out from the inputs by
//! a naive fold that shares no code with the system.
//!
//! Preloaded series are a pure function of `(seed, sensor, index)` in
//! quarter units, so window sums are exact and historical responses are
//! compared value for value.  Live sensors follow the tester plugin's ramp;
//! a live window that was still filling when the query ran is checked
//! against the two means it must lie between.

use std::collections::{BTreeMap, HashMap};

use crate::json::{self, Value};
use crate::workload::{
    Agg, Inputs, Query, DASH_WINDOW_NS, GROUPS, LIVE_WINDOW_NS, PRELOAD_STEP_NS, PRELOAD_T0_NS,
    SCAN_WINDOW_NS,
};

/// What was known about one live pusher's progress around a query.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveBounds {
    /// The live clock the query's range was built from.
    pub now_ns: i64,
    /// When the query was sent, every reading of the pusher with a
    /// timestamp below this had been acknowledged as stored.
    pub complete_before: i64,
    /// When the response arrived, no reading with a timestamp at or above
    /// this had been sampled yet.
    pub issued_before: i64,
}

const REL_TOL: f64 = 1e-9;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()).max(1.0)
}

#[derive(Default, Clone, Copy)]
struct Acc {
    n: u64,
    sum: f64,
    max: f64,
}

impl Acc {
    fn push(&mut self, v: f64) {
        self.max = if self.n == 0 { v } else { self.max.max(v) };
        self.n += 1;
        self.sum += v;
    }

    fn finish(&self, agg: Agg) -> f64 {
        match agg {
            Agg::Avg => self.sum / self.n as f64,
            Agg::Max => self.max,
        }
    }
}

/// Naive windowed fold of preloaded sensors over `[start, end)`: every
/// reading of every sensor lands in the window `floor(ts / window) * window`.
pub fn fold_history(
    inputs: &Inputs,
    sensors: &[usize],
    start: i64,
    end: i64,
    window: i64,
    agg: Agg,
) -> Vec<(i64, f64)> {
    let first = ((start - PRELOAD_T0_NS).max(0) + PRELOAD_STEP_NS - 1) / PRELOAD_STEP_NS;
    let mut windows: BTreeMap<i64, Acc> = BTreeMap::new();
    for &s in sensors {
        for k in first as usize..inputs.history_len() {
            let ts = inputs.history_ts(k);
            if ts >= end {
                break;
            }
            windows
                .entry(ts.div_euclid(window) * window)
                .or_default()
                .push(inputs.history_value(s, k));
        }
    }
    windows.into_iter().map(|(w, acc)| (w, acc.finish(agg))).collect()
}

/// `[[value, ts], ...]` as the REST API renders datapoints.
fn datapoints(v: &Value) -> Result<Vec<(i64, f64)>, String> {
    v.as_arr()
        .ok_or("datapoints is not an array")?
        .iter()
        .map(|p| {
            let pair = p.as_arr().filter(|a| a.len() == 2).ok_or("datapoint is not a pair")?;
            match (pair[0].as_f64(), pair[1].as_f64()) {
                (Some(value), Some(ts)) if ts.fract() == 0.0 => Ok((ts as i64, value)),
                _ => Err("datapoint is not [number, integer]".to_string()),
            }
        })
        .collect()
}

fn expect_points(got: &[(i64, f64)], want: &[(i64, f64)]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} datapoints, expected {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g.0 != w.0 || !close(g.1, w.1) {
            return Err(format!("datapoint {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

fn field<'a>(doc: &'a Value, key: &str) -> Result<&'a Value, String> {
    doc.get(key).ok_or_else(|| format!("no {key:?} in response"))
}

fn number(doc: &Value, key: &str) -> Result<f64, String> {
    field(doc, key)?.as_f64().ok_or_else(|| format!("{key:?} is not a number"))
}

/// Folds already done: dashboards and scans repeat their queries, and the
/// expected answer to a historical query never changes.
#[derive(Default)]
pub struct Memo {
    folds: HashMap<FoldKey, Vec<(i64, f64)>>,
}

/// Sensors, start, end, window, whether the fold is a maximum.
type FoldKey = (Vec<usize>, i64, i64, i64, bool);

impl Memo {
    fn fold(
        &mut self,
        inputs: &Inputs,
        sensors: &[usize],
        (start, end): (i64, i64),
        window: i64,
        agg: Agg,
    ) -> &[(i64, f64)] {
        self.folds
            .entry((sensors.to_vec(), start, end, window, agg == Agg::Max))
            .or_insert_with(|| fold_history(inputs, sensors, start, end, window, agg))
    }
}

/// Check one HTTP response against what the inputs say it must be.
pub fn check(
    inputs: &Inputs,
    memo: &mut Memo,
    q: &Query,
    live: &LiveBounds,
    status: u16,
    body: &[u8],
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("HTTP {status}"));
    }
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?;
    let doc = json::parse(text)?;
    let (start, end) = inputs.range(q, live.now_ns);
    match q {
        Query::Cache { sensor } => {
            let last = inputs.history_len() - 1;
            if field(&doc, "topic")?.as_str() != Some(&inputs.history_topics()[*sensor]) {
                return Err("wrong topic".into());
            }
            let (ts, value) = (number(&doc, "ts")?, number(&doc, "value")?);
            if ts != inputs.history_ts(last) as f64 || value != inputs.history_value(*sensor, last)
            {
                return Err(format!("latest reading ({ts}, {value}) is not the last one sent"));
            }
            Ok(())
        }
        Query::Window { sensor, agg } => {
            if number(&doc, "sensors")? != 1.0 {
                return Err("expected one sensor".into());
            }
            let want = memo.fold(inputs, &[*sensor], (start, end), DASH_WINDOW_NS, *agg);
            expect_points(&datapoints(field(&doc, "datapoints")?)?, want)
        }
        Query::Scan { node, .. } => {
            let per_node = inputs.history_topics().len() / crate::workload::PUSHERS;
            let per_group = per_node / GROUPS.len();
            // the node's live tester sensors sit in the same sub-tree; their
            // clock is nowhere near the history, so they add an empty group
            let want_sensors = per_node + inputs.spec.sensors;
            if number(&doc, "sensors")? != want_sensors as f64 {
                return Err(format!(
                    "{} sensors, expected {want_sensors}",
                    number(&doc, "sensors")?
                ));
            }
            let groups = field(&doc, "groups")?.as_arr().ok_or("groups is not an array")?;
            let prefix = inputs.pusher_prefix(*node);
            let mut seen = 0;
            for g in groups {
                let key = field(g, "group")?.as_str().ok_or("group is not a string")?;
                let got = datapoints(field(g, "datapoints")?)?;
                if key == format!("{prefix}/tester") {
                    if !got.is_empty() {
                        return Err("live sensors answered a historical range".into());
                    }
                    continue;
                }
                let gi = GROUPS
                    .iter()
                    .position(|name| key == format!("{prefix}/{name}"))
                    .ok_or_else(|| format!("unexpected group {key:?}"))?;
                if number(g, "sensors")? != per_group as f64 {
                    return Err(format!("group {key} has the wrong sensor count"));
                }
                let first = node * per_node + gi * per_group;
                let members: Vec<usize> = (first..first + per_group).collect();
                let want = memo.fold(inputs, &members, (start, end), SCAN_WINDOW_NS, Agg::Avg);
                expect_points(&got, want).map_err(|e| format!("group {key}: {e}"))?;
                seen += 1;
            }
            if seen != GROUPS.len() {
                return Err(format!("{seen} history groups, expected {}", GROUPS.len()));
            }
            Ok(())
        }
        Query::LivePanel { sensor, .. } => {
            if number(&doc, "sensors")? != 1.0 {
                return Err("expected one sensor".into());
            }
            let got = datapoints(field(&doc, "datapoints")?)?;
            check_live(inputs.spec.sample_ns, *sensor, start, end, live, &got)
        }
    }
}

/// Mean of the tester ramp of sensor `i` over the first `n` grid points at
/// or after `lo`.
fn ramp_mean(sample_ns: i64, i: usize, lo: i64, n: i64) -> f64 {
    let first = lo.div_euclid(sample_ns) + i64::from(lo.rem_euclid(sample_ns) != 0);
    let mut sum = 0.0;
    for r in first..first + n {
        sum += Inputs::tester_value(i, r * sample_ns);
    }
    sum / n as f64
}

/// Grid points (multiples of `step`) in `[lo, hi)`.
fn grid_points(step: i64, lo: i64, hi: i64) -> i64 {
    if hi <= lo {
        return 0;
    }
    let ceil = |x: i64| x.div_euclid(step) + i64::from(x.rem_euclid(step) != 0);
    ceil(hi) - ceil(lo)
}

fn check_live(
    sample_ns: i64,
    sensor: usize,
    start: i64,
    end: i64,
    live: &LiveBounds,
    got: &[(i64, f64)],
) -> Result<(), String> {
    let w = LIVE_WINDOW_NS;
    let mut got = got.iter().peekable();
    let mut window = start.div_euclid(w) * w;
    while window < end {
        let (lo, hi) = (start.max(window), end.min(window + w));
        let must = grid_points(sample_ns, lo, hi.min(live.complete_before));
        let may = grid_points(sample_ns, lo, hi.min(live.issued_before));
        let point = got.next_if(|p| p.0 == window);
        match point {
            None if must > 0 => {
                return Err(format!("window {window} is missing {must} stored readings"));
            }
            None => {}
            Some(_) if may == 0 => {
                return Err(format!("window {window} holds readings nobody sent"));
            }
            Some(&(_, v)) => {
                // the ramp rises, so the mean of a longer prefix is larger
                let low = ramp_mean(sample_ns, sensor, lo, must.max(1));
                let high = ramp_mean(sample_ns, sensor, lo, may);
                if !(v >= low || close(v, low)) || !(v <= high || close(v, high)) {
                    return Err(format!("window {window} averages {v}, not in [{low}, {high}]"));
                }
            }
        }
        window += w;
    }
    match got.next() {
        Some(p) => Err(format!("datapoint {p:?} outside the range or out of order")),
        None => Ok(()),
    }
}

/// Check that a live sensor read back in full holds exactly the readings
/// its pusher sampled up to and including `last_now_ns`.
pub fn check_tester_readback(
    sample_ns: i64,
    sensor: usize,
    last_now_ns: i64,
    got: &[(i64, f64)],
) -> Result<(), String> {
    let want = last_now_ns / sample_ns + 1;
    if got.len() as i64 != want {
        return Err(format!("{} readings stored, {want} sent", got.len()));
    }
    for (r, &(ts, v)) in got.iter().enumerate() {
        let want_ts = r as i64 * sample_ns;
        if ts != want_ts || v != Inputs::tester_value(sensor, want_ts) {
            return Err(format!("reading {r} is ({ts}, {v})"));
        }
    }
    Ok(())
}

/// Check that a preloaded sensor read back in full is what was sent.
pub fn check_history_readback(inputs: &Inputs, s: usize, got: &[(i64, f64)]) -> Result<(), String> {
    if got.len() != inputs.history_len() {
        return Err(format!("{} readings stored, {} sent", got.len(), inputs.history_len()));
    }
    for (k, &(ts, v)) in got.iter().enumerate() {
        if ts != inputs.history_ts(k) || v != inputs.history_value(s, k) {
            return Err(format!("reading {k} is ({ts}, {v})"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, HOUR_NS};

    fn render(points: &[(i64, f64)]) -> String {
        let p: Vec<String> = points.iter().map(|(ts, v)| format!("[{v},{ts}]")).collect();
        format!("[{}]", p.join(","))
    }

    #[test]
    fn window_response_must_match_the_fold_exactly() {
        let w = Inputs::new(*find("dashboard_hot").unwrap(), 5);
        let q = Query::Window { sensor: w.hot_set()[0], agg: Agg::Avg };
        let (start, end) = w.range(&q, 0);
        assert_eq!(end - start, HOUR_NS);
        let want = fold_history(&w, &[w.hot_set()[0]], start, end, DASH_WINDOW_NS, Agg::Avg);
        // the history does not start on a window boundary: 11 whole windows, 2 partial
        assert_eq!(want.len(), 13);
        let body = format!(r#"{{"topic":"x","sensors":1,"datapoints":{}}}"#, render(&want));
        let live = LiveBounds::default();
        let mut memo = Memo::default();
        let mut check = |w: &Inputs, q: &Query, live: &LiveBounds, status, body: &[u8]| {
            super::check(w, &mut memo, q, live, status, body)
        };
        assert_eq!(check(&w, &q, &live, 200, body.as_bytes()), Ok(()));
        assert!(check(&w, &q, &live, 500, body.as_bytes()).is_err());
        let mut off = want.clone();
        off[3].1 += 0.25;
        let body = format!(r#"{{"topic":"x","sensors":1,"datapoints":{}}}"#, render(&off));
        assert!(check(&w, &q, &live, 200, body.as_bytes()).is_err());
        let body = format!(r#"{{"topic":"x","sensors":1,"datapoints":{}}}"#, render(&want[1..]));
        assert!(check(&w, &q, &live, 200, body.as_bytes()).is_err());
    }

    #[test]
    fn live_window_bounds() {
        let step = 100_000_000;
        // 60 s ending at t = 25 s: windows 0, 10, 20 (the last one filling)
        let live = LiveBounds {
            now_ns: 25_000_000_000,
            complete_before: 24_900_000_001,
            issued_before: 25_000_000_001,
        };
        let (start, end) = (0, live.now_ns + 1);
        let full = |w: i64| ramp_mean(step, 3, w, 100);
        let partial_low = ramp_mean(step, 3, 20_000_000_000, 50);
        let partial_high = ramp_mean(step, 3, 20_000_000_000, 51);
        let ok = vec![
            (0, full(0)),
            (10_000_000_000, full(10_000_000_000)),
            (20_000_000_000, partial_low),
        ];
        assert_eq!(check_live(step, 3, start, end, &live, &ok), Ok(()));
        let mut hi = ok.clone();
        hi[2].1 = partial_high;
        assert_eq!(check_live(step, 3, start, end, &live, &hi), Ok(()));
        // a lost reading in a complete window moves its mean
        let mut lost = ok.clone();
        lost[1].1 = ramp_mean(step, 3, 10_000_000_000, 99);
        assert!(check_live(step, 3, start, end, &live, &lost).is_err());
        // a missing complete window, and a window from the future
        assert!(check_live(step, 3, start, end, &live, &ok[1..]).is_err());
        let mut extra = ok.clone();
        extra.push((30_000_000_000, 30.0));
        assert!(check_live(step, 3, start, end, &live, &extra).is_err());
        assert!((full(0) - (4.95 + 0.003)).abs() < 1e-9);
    }

    #[test]
    fn readback_is_exact() {
        let got: Vec<(i64, f64)> =
            (0..11).map(|r| (r * 2_000_000, Inputs::tester_value(7, r * 2_000_000))).collect();
        assert_eq!(check_tester_readback(2_000_000, 7, 20_000_000, &got), Ok(()));
        assert!(check_tester_readback(2_000_000, 7, 22_000_000, &got).is_err());
        assert!(check_tester_readback(2_000_000, 8, 20_000_000, &got).is_err());
    }
}
