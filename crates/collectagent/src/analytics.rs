//! Streaming data analytics.
//!
//! The paper's future-work section (§9) plans "a streaming data analytics
//! layer highly-integrated in our framework, which will offer novel
//! abstractions to aid in the implementation of algorithms for many data
//! analytics applications in HPC, such as energy efficiency optimization or
//! anomaly detection", fetching live sensor data at the Collect Agent or
//! Pusher level.  This module implements that layer:
//!
//! * [`Operator`] — the abstraction: a stateful consumer of live readings
//!   that may emit *derived readings* (fed back into storage under their own
//!   topics, like materialised virtual sensors) and *events* (alerts),
//! * built-in operators: [`MovingAverage`], [`Threshold`],
//!   [`ZScoreAnomaly`], [`RateOfChange`], [`WindowedStats`] (fixed
//!   time-window statistics via `dcdb-query`'s [`Moments`] accumulator —
//!   the same implementation the query engine uses offline),
//! * [`AnalyticsPipeline`] — attaches operators to a [`CollectAgent`] via
//!   its observer hook; topic selection uses MQTT wildcard filters.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcdb_mqtt::topic::filter_matches;
use dcdb_query::{AggFn, Moments};
use parking_lot::{Mutex, RwLock};

use crate::agent::CollectAgent;

/// A derived reading emitted by an operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Derived {
    /// Topic to publish under (conventionally below `/analytics`).
    pub topic: String,
    /// Timestamp, ns.
    pub ts: i64,
    /// Value.
    pub value: f64,
}

/// An alert raised by an operator.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Originating sensor topic.
    pub topic: String,
    /// Timestamp, ns.
    pub ts: i64,
    /// Observed value.
    pub value: f64,
    /// Human-readable description.
    pub message: String,
}

/// Output of one operator step.
#[derive(Debug, Clone, Default)]
pub struct Emit {
    /// Derived readings to store.
    pub derived: Vec<Derived>,
    /// Events to surface.
    pub events: Vec<Event>,
}

/// A streaming operator.
pub trait Operator: Send + Sync {
    /// Operator name (used in derived topics and reports).
    fn name(&self) -> &str;

    /// Consume one live reading.
    fn process(&self, topic: &str, ts: i64, value: f64) -> Emit;
}

/// Sliding-window moving average; emits one derived reading per input under
/// `/analytics/avg<topic>`.
pub struct MovingAverage {
    window: usize,
    state: Mutex<HashMap<String, VecDeque<f64>>>,
}

impl MovingAverage {
    /// Average over the last `window` readings per sensor.
    pub fn new(window: usize) -> MovingAverage {
        assert!(window > 0);
        MovingAverage { window, state: Mutex::new(HashMap::new()) }
    }
}

impl Operator for MovingAverage {
    fn name(&self) -> &str {
        "avg"
    }

    fn process(&self, topic: &str, ts: i64, value: f64) -> Emit {
        let mut state = self.state.lock();
        let buf = state.entry(topic.to_string()).or_default();
        buf.push_back(value);
        if buf.len() > self.window {
            buf.pop_front();
        }
        let avg = buf.iter().sum::<f64>() / buf.len() as f64;
        Emit {
            derived: vec![Derived { topic: format!("/analytics/avg{topic}"), ts, value: avg }],
            events: Vec::new(),
        }
    }
}

/// Threshold alert with hysteresis: raises when the value crosses above
/// `high`, re-arms when it falls below `low` (a power-band guard, the
/// paper's §1 motivating use case).
pub struct Threshold {
    high: f64,
    low: f64,
    armed: Mutex<HashMap<String, bool>>,
}

impl Threshold {
    /// Alert above `high`; re-arm below `low`.
    pub fn new(high: f64, low: f64) -> Threshold {
        assert!(low <= high);
        Threshold { high, low, armed: Mutex::new(HashMap::new()) }
    }
}

impl Operator for Threshold {
    fn name(&self) -> &str {
        "threshold"
    }

    fn process(&self, topic: &str, ts: i64, value: f64) -> Emit {
        let mut armed = self.armed.lock();
        let slot = armed.entry(topic.to_string()).or_insert(true);
        let mut events = Vec::new();
        if *slot && value > self.high {
            *slot = false;
            events.push(Event {
                topic: topic.to_string(),
                ts,
                value,
                message: format!("value {value:.2} exceeded threshold {:.2}", self.high),
            });
        } else if !*slot && value < self.low {
            *slot = true;
        }
        Emit { derived: Vec::new(), events }
    }
}

/// Online z-score anomaly detector (Welford's algorithm); flags readings
/// more than `sigmas` standard deviations from the running mean once enough
/// samples accumulated.
pub struct ZScoreAnomaly {
    sigmas: f64,
    min_samples: usize,
    state: Mutex<HashMap<String, Welford>>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl ZScoreAnomaly {
    /// Flag beyond `sigmas` σ after `min_samples` observations per sensor.
    pub fn new(sigmas: f64, min_samples: usize) -> ZScoreAnomaly {
        assert!(sigmas > 0.0 && min_samples >= 2);
        ZScoreAnomaly { sigmas, min_samples, state: Mutex::new(HashMap::new()) }
    }
}

impl Operator for ZScoreAnomaly {
    fn name(&self) -> &str {
        "zscore"
    }

    fn process(&self, topic: &str, ts: i64, value: f64) -> Emit {
        let mut state = self.state.lock();
        let w = state.entry(topic.to_string()).or_default();
        let mut events = Vec::new();
        if w.n as usize >= self.min_samples {
            let var = w.m2 / w.n as f64;
            let std = var.sqrt();
            if std > 0.0 {
                let z = (value - w.mean) / std;
                if z.abs() > self.sigmas {
                    events.push(Event {
                        topic: topic.to_string(),
                        ts,
                        value,
                        message: format!("anomaly: z-score {z:+.2} (mean {:.2})", w.mean),
                    });
                }
            }
        }
        // Welford update (anomalous samples included: the detector adapts)
        w.n += 1;
        let delta = value - w.mean;
        w.mean += delta / w.n as f64;
        w.m2 += delta * (value - w.mean);
        Emit { derived: Vec::new(), events }
    }
}

/// Per-second rate of change, emitted under `/analytics/rate<topic>` —
/// turns cumulative counters into live rates (e.g. instructions/s for DVFS
/// feedback, the paper's §7.2 motivation).
pub struct RateOfChange {
    state: Mutex<HashMap<String, (i64, f64)>>,
}

impl RateOfChange {
    /// New rate operator.
    pub fn new() -> RateOfChange {
        RateOfChange { state: Mutex::new(HashMap::new()) }
    }
}

impl Default for RateOfChange {
    fn default() -> Self {
        RateOfChange::new()
    }
}

impl Operator for RateOfChange {
    fn name(&self) -> &str {
        "rate"
    }

    fn process(&self, topic: &str, ts: i64, value: f64) -> Emit {
        let mut state = self.state.lock();
        let prev = state.insert(topic.to_string(), (ts, value));
        let mut derived = Vec::new();
        if let Some((pts, pval)) = prev {
            if ts > pts {
                let rate = (value - pval) / ((ts - pts) as f64 / 1e9);
                derived.push(Derived { topic: format!("/analytics/rate{topic}"), ts, value: rate });
            }
        }
        Emit { derived, events: Vec::new() }
    }
}

/// Live fixed-window statistics: accumulates each sensor's readings into
/// `dcdb-query` [`Moments`] per epoch-aligned window and, when a reading
/// crosses into the next window, emits the *closed* window's statistic
/// under `/analytics/<agg><topic>` (stamped at the window start) — the
/// streaming twin of the offline windowed `SensorDb::execute` path, sharing its
/// accumulator so both report identical numbers.
pub struct WindowedStats {
    agg: AggFn,
    name: String,
    window_ns: i64,
    state: Mutex<HashMap<String, (i64, Moments)>>,
}

impl WindowedStats {
    /// Window statistics for a moment-style aggregation
    /// (`avg`/`min`/`max`/`sum`/`count`/`stddev`).
    ///
    /// # Panics
    /// Panics on a non-positive window or a `quantile`/`rate` aggregation
    /// (those need per-window value sets or rate pairing — use the query
    /// engine for them).
    pub fn new(window_ns: i64, agg: AggFn) -> WindowedStats {
        assert!(window_ns > 0, "window must be positive");
        assert!(
            !matches!(agg, AggFn::Quantile(_) | AggFn::Rate),
            "WindowedStats supports moment-style aggregations only"
        );
        WindowedStats { agg, name: agg.to_string(), window_ns, state: Mutex::new(HashMap::new()) }
    }

    /// Build the live operator from the same typed
    /// [`QueryRequest`](dcdb_core::QueryRequest) the
    /// offline path executes — the two sides of one query surface: an
    /// operator constructed from a request emits, window for window, the
    /// numbers `SensorDb::execute` computes for that request after the
    /// fact.
    ///
    /// # Errors
    /// Rejects requests without a windowed moment-style aggregation.
    pub fn from_request(req: &dcdb_core::QueryRequest) -> Result<WindowedStats, String> {
        let Some(agg) = req.agg else {
            return Err("live windowed stats need an aggregation".into());
        };
        let Some(window_ns) = req.window_ns.filter(|&w| w > 0) else {
            return Err("live windowed stats need a positive window".into());
        };
        if matches!(agg, AggFn::Quantile(_) | AggFn::Rate) {
            return Err(format!("aggregation {agg} needs the offline query engine"));
        }
        if req.group_by.is_some() {
            // one operator tracks per-topic windows; a grouped request wants
            // per-sub-tree fan-in the live path cannot reproduce — reject
            // rather than silently emit different numbers than execute()
            return Err("grouped requests need the offline query engine".into());
        }
        Ok(WindowedStats::new(window_ns, agg))
    }

    fn value_of(&self, m: &Moments) -> f64 {
        match self.agg {
            // sum / n, exactly how the offline windowed path reports avg
            AggFn::Avg if m.count() > 0 => m.sum() / m.count() as f64,
            AggFn::Avg => 0.0,
            AggFn::Min => m.min(),
            AggFn::Max => m.max(),
            AggFn::Sum => m.sum(),
            AggFn::Count => m.count() as f64,
            AggFn::Stddev => m.stddev(),
            // rejected in new(); NaN (not a panic) if one ever slips into
            // the live pipeline
            AggFn::Quantile(_) | AggFn::Rate => f64::NAN,
        }
    }
}

impl Operator for WindowedStats {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&self, topic: &str, ts: i64, value: f64) -> Emit {
        let window = (ts as i128).div_euclid(self.window_ns as i128) as i64;
        let mut state = self.state.lock();
        let mut derived = Vec::new();
        let slot = state.entry(topic.to_string()).or_insert_with(|| (window, Moments::new()));
        // A reading older than the open window is late: its window already
        // closed and emitted, so folding it anywhere would corrupt either
        // the emitted statistic or the open one — drop it.
        if window < slot.0 {
            return Emit::default();
        }
        if window > slot.0 {
            // the previous window closed: emit its statistic
            derived.push(Derived {
                topic: format!("/analytics/{}{topic}", self.name),
                ts: slot.0.saturating_mul(self.window_ns),
                value: self.value_of(&slot.1),
            });
            *slot = (window, Moments::new());
        }
        slot.1.push(value);
        Emit { derived, events: Vec::new() }
    }
}

struct Attached {
    filter: String,
    operator: Arc<dyn Operator>,
}

/// The pipeline: operators attached to topic filters, fed by a Collect
/// Agent, with derived readings written back into storage.
pub struct AnalyticsPipeline {
    agent: Arc<CollectAgent>,
    operators: RwLock<Vec<Attached>>,
    events: Mutex<Vec<Event>>,
    /// Readings processed.
    pub processed: AtomicU64,
    /// Derived readings written back.
    pub derived_written: AtomicU64,
}

impl AnalyticsPipeline {
    /// Create a pipeline over `agent` and install its observer hook.
    pub fn attach(agent: &Arc<CollectAgent>) -> Arc<AnalyticsPipeline> {
        let pipeline = Arc::new(AnalyticsPipeline {
            agent: Arc::clone(agent),
            operators: RwLock::new(Vec::new()),
            events: Mutex::new(Vec::new()),
            processed: AtomicU64::new(0),
            derived_written: AtomicU64::new(0),
        });
        let weak = Arc::downgrade(&pipeline);
        agent.add_observer(Arc::new(move |topic, ts, value| {
            if let Some(p) = weak.upgrade() {
                p.on_reading(topic, ts, value);
            }
        }));
        pipeline
    }

    /// Attach `operator` to every topic matching `filter` (MQTT wildcards).
    pub fn add_operator(&self, filter: &str, operator: Arc<dyn Operator>) {
        self.operators.write().push(Attached { filter: filter.to_string(), operator });
    }

    fn on_reading(&self, topic: &str, ts: i64, value: f64) {
        // Derived topics are excluded to avoid feedback loops.
        if topic.starts_with("/analytics/") {
            return;
        }
        self.processed.fetch_add(1, Ordering::Relaxed);
        let ops = self.operators.read();
        for attached in ops.iter() {
            if !filter_matches(&attached.filter, topic) {
                continue;
            }
            let emit = attached.operator.process(topic, ts, value);
            for d in emit.derived {
                if let Ok(sid) = self.agent.registry().resolve(&d.topic) {
                    self.agent.store().insert(sid, d.ts, d.value);
                    self.derived_written.fetch_add(1, Ordering::Relaxed);
                }
            }
            if !emit.events.is_empty() {
                self.events.lock().extend(emit.events);
            }
        }
    }

    /// Drain accumulated events.
    pub fn take_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_mqtt::payload::encode_readings;
    use dcdb_store::reading::TimeRange;
    use dcdb_store::StoreCluster;

    fn agent_with_pipeline() -> (Arc<CollectAgent>, Arc<AnalyticsPipeline>) {
        let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
        let pipeline = AnalyticsPipeline::attach(&agent);
        (agent, pipeline)
    }

    #[test]
    fn moving_average_written_back_to_store() {
        let (agent, pipeline) = agent_with_pipeline();
        pipeline.add_operator("/n/#", Arc::new(MovingAverage::new(3)));
        for (i, v) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            agent.handle_publish("/n/power", &encode_readings(&[(i as i64 * 1000, *v)]));
        }
        let sid = agent.registry().get("/analytics/avg/n/power").unwrap();
        let avg = agent.store().query(sid, TimeRange::all());
        assert_eq!(avg.len(), 4);
        assert_eq!(avg[0].value, 10.0);
        assert_eq!(avg[2].value, 20.0); // (10+20+30)/3
        assert_eq!(avg[3].value, 30.0); // (20+30+40)/3
        assert_eq!(pipeline.derived_written.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn threshold_alerts_with_hysteresis() {
        let (agent, pipeline) = agent_with_pipeline();
        pipeline.add_operator("/pwr/#", Arc::new(Threshold::new(100.0, 80.0)));
        for (i, v) in [90.0, 120.0, 130.0, 70.0, 110.0].iter().enumerate() {
            agent.handle_publish("/pwr/total", &encode_readings(&[(i as i64, *v)]));
        }
        let events = pipeline.take_events();
        // fires at 120 (not again at 130), re-arms at 70, fires at 110
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].value, 120.0);
        assert_eq!(events[1].value, 110.0);
        assert!(pipeline.take_events().is_empty(), "events drained");
    }

    #[test]
    fn zscore_flags_outliers_only() {
        let (agent, pipeline) = agent_with_pipeline();
        pipeline.add_operator("/t/#", Arc::new(ZScoreAnomaly::new(4.0, 10)));
        for i in 0..50 {
            let v = 100.0 + (i % 5) as f64; // benign jitter
            agent.handle_publish("/t/temp", &encode_readings(&[(i, v)]));
        }
        assert!(pipeline.take_events().is_empty(), "no false positives");
        agent.handle_publish("/t/temp", &encode_readings(&[(50, 500.0)]));
        let events = pipeline.take_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].message.contains("anomaly"));
    }

    #[test]
    fn rate_of_change_derives_per_second_rates() {
        let (agent, pipeline) = agent_with_pipeline();
        pipeline.add_operator("/c/#", Arc::new(RateOfChange::new()));
        agent.handle_publish("/c/energy", &encode_readings(&[(0, 0.0)]));
        agent.handle_publish("/c/energy", &encode_readings(&[(2_000_000_000, 500.0)]));
        let sid = agent.registry().get("/analytics/rate/c/energy").unwrap();
        let rates = agent.store().query(sid, TimeRange::all());
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].value, 250.0); // 500 J over 2 s
    }

    #[test]
    fn windowed_stats_emit_on_window_close() {
        let (agent, pipeline) = agent_with_pipeline();
        pipeline.add_operator("/w/#", Arc::new(WindowedStats::new(10_000_000_000, AggFn::Avg)));
        // two full 10 s windows of 1 Hz data, then one reading of a third
        for i in 0..21i64 {
            agent.handle_publish("/w/power", &encode_readings(&[(i * 1_000_000_000, i as f64)]));
        }
        let sid = agent.registry().get("/analytics/avg/w/power").unwrap();
        let avg = agent.store().query(sid, TimeRange::all());
        assert_eq!(avg.len(), 2, "only closed windows emit");
        assert_eq!(avg[0].ts, 0);
        assert_eq!(avg[0].value, 4.5); // mean of 0..=9
        assert_eq!(avg[1].ts, 10_000_000_000);
        assert_eq!(avg[1].value, 14.5); // mean of 10..=19
    }

    #[test]
    fn windowed_stats_agree_with_query_engine() {
        let (agent, pipeline) = agent_with_pipeline();
        // one QueryRequest drives both sides: the live operator and the
        // offline unified query path
        let req = dcdb_core::QueryRequest::topic("/w/s")
            .range(TimeRange::new(0, 2_000))
            .aggregate(AggFn::Max, 1_000);
        pipeline.add_operator("/w/#", Arc::new(WindowedStats::from_request(&req).unwrap()));
        for i in 0..3_000i64 {
            let v = ((i * 37) % 101) as f64;
            agent.handle_publish("/w/s", &encode_readings(&[(i, v)]));
        }
        let live_sid = agent.registry().get("/analytics/max/w/s").unwrap();
        let live = agent.store().query(live_sid, TimeRange::all());
        let offline = agent.sensor_db().execute(&req).unwrap().into_single();
        // the two closed windows match the offline pushdown aggregate exactly
        assert_eq!(live.len(), 2);
        assert_eq!(offline.readings.len(), 2);
        for (a, b) in live.iter().zip(&offline.readings) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }

    #[test]
    fn windowed_stats_from_request_validates() {
        let raw = dcdb_core::QueryRequest::topic("/w/s");
        assert!(WindowedStats::from_request(&raw).is_err());
        let interp = dcdb_core::QueryRequest::topic("/w/s").aggregate_interpolated(AggFn::Sum);
        assert!(WindowedStats::from_request(&interp).is_err());
        let quantile = dcdb_core::QueryRequest::topic("/w/s").aggregate(AggFn::Quantile(0.5), 10);
        assert!(WindowedStats::from_request(&quantile).is_err());
        let grouped = dcdb_core::QueryRequest::new("/w").aggregate(AggFn::Avg, 10).group_by(2);
        assert!(WindowedStats::from_request(&grouped).is_err());
        let ok = dcdb_core::QueryRequest::topic("/w/s").aggregate(AggFn::Stddev, 10);
        assert_eq!(WindowedStats::from_request(&ok).unwrap().name(), "stddev");
    }

    #[test]
    #[should_panic(expected = "moment-style")]
    fn windowed_stats_reject_rate() {
        WindowedStats::new(1_000, AggFn::Rate);
    }

    #[test]
    fn windowed_stats_drop_late_readings() {
        let (agent, pipeline) = agent_with_pipeline();
        pipeline.add_operator("/w/#", Arc::new(WindowedStats::new(10, AggFn::Avg)));
        // window 0 fills, window 1 opens, then a straggler from window 0
        for (ts, v) in [(0i64, 2.0), (5, 4.0), (12, 100.0), (7, 999.0), (14, 100.0), (21, 0.0)] {
            agent.handle_publish("/w/s", &encode_readings(&[(ts, v)]));
        }
        let sid = agent.registry().get("/analytics/avg/w/s").unwrap();
        let avg = agent.store().query(sid, TimeRange::all());
        // the late (7, 999.0) reading neither re-emits window 0 nor leaks
        // into window 1: window 0 = avg(2,4), window 1 = avg(100,100)
        assert_eq!(avg.len(), 2, "{avg:?}");
        assert_eq!(avg[0].ts, 0);
        assert_eq!(avg[0].value, 3.0);
        assert_eq!(avg[1].ts, 10);
        assert_eq!(avg[1].value, 100.0);
    }

    #[test]
    fn filters_scope_operators() {
        let (agent, pipeline) = agent_with_pipeline();
        pipeline.add_operator("/a/+/power", Arc::new(MovingAverage::new(2)));
        agent.handle_publish("/a/n0/power", &encode_readings(&[(0, 1.0)]));
        agent.handle_publish("/a/n0/temp", &encode_readings(&[(0, 1.0)]));
        agent.handle_publish("/b/n0/power", &encode_readings(&[(0, 1.0)]));
        assert_eq!(pipeline.derived_written.load(Ordering::Relaxed), 1);
        assert_eq!(pipeline.processed.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn no_feedback_loops_on_derived_topics() {
        let (agent, pipeline) = agent_with_pipeline();
        // operator matching everything, including its own output topic space
        pipeline.add_operator("#", Arc::new(MovingAverage::new(2)));
        agent.handle_publish("/x/s", &encode_readings(&[(0, 1.0)]));
        // derived insert goes straight to the store (not through
        // handle_publish), and /analytics/ topics are skipped defensively
        assert_eq!(pipeline.derived_written.load(Ordering::Relaxed), 1);
        assert_eq!(pipeline.processed.load(Ordering::Relaxed), 1);
    }
}
