//! The unified typed query API: [`QueryRequest`] in, [`QueryResponse`] out.
//!
//! The paper's pitch is *one query surface over the whole sensor tree*
//! (§3.2, §4.3); this module is that surface.  Every consumer — the Grafana
//! data source, the Collect Agent's REST API, `dcdbquery`, query-based
//! alert rules — builds a [`QueryRequest`] and hands it to
//! [`SensorDb::execute`](crate::SensorDb::execute).  The text surfaces (URL
//! query strings, CLI flags) all parse through
//! [`QueryRequest::from_params`], which owns the accepted spellings.
//!
//! A request names a *target* (exact topic, hierarchy prefix, or
//! auto-detect), a [`TimeRange`], and optionally:
//!
//! * an aggregation ([`AggFn`]) with a window (`window_ns`) for windowed
//!   pushdown aggregation, or without one for interpolated union-grid
//!   aggregation,
//! * a `group_by` hierarchy level: instead of fanning the whole sub-tree
//!   into one series, sensors partition by their topic's first `level`
//!   components and every group aggregates into its own series —
//!   evaluated **concurrently** on `dcdb-query`'s scoped thread pool,
//! * a per-series `limit` (keep the most recent `n` readings) and a
//!   response ordering ([`SeriesOrder`]).
//!
//! ```
//! use dcdb_core::{QueryRequest, SensorDb};
//! use dcdb_query::AggFn;
//! use dcdb_store::reading::TimeRange;
//!
//! let db = SensorDb::in_memory();
//! for rack in 0..2 {
//!     for node in 0..4 {
//!         for ts in 0..60i64 {
//!             db.insert(
//!                 &format!("/sys/rack{rack}/node{node}/power"),
//!                 ts * 1_000_000_000,
//!                 200.0 + node as f64,
//!             )
//!             .unwrap();
//!         }
//!     }
//! }
//! // average power per rack, 1-minute windows, one series per rack
//! let req = QueryRequest::new("/sys")
//!     .range(TimeRange::new(0, 60_000_000_000))
//!     .aggregate(AggFn::Avg, 60_000_000_000)
//!     .group_by(2);
//! let resp = db.execute(&req).unwrap();
//! assert_eq!(resp.series.len(), 2);
//! assert_eq!(resp.series[0].key.as_deref(), Some("/sys/rack0"));
//! assert_eq!(resp.series[0].sensors, 4);
//! ```

use std::fmt;

use dcdb_http::server::{Response, StatusCode};
use dcdb_query::AggFn;
use dcdb_store::reading::TimeRange;

use crate::api::Series;
use crate::vsensor::VsError;

/// How a request's target string resolves to sensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TargetMode {
    /// Exact topic only — an unknown topic yields an empty series, never a
    /// sub-tree fan-out.
    Exact,
    /// Exact topic when one is registered under the target, else fan out
    /// over the sub-tree below it.
    #[default]
    Auto,
    /// Always fan out over the sub-tree below the target, even when the
    /// target itself names a sensor.  Virtual sensors live outside the
    /// physical hierarchy and are not consulted.
    Subtree,
}

/// How sensor units combine when several sensors fan into one series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnitMode {
    /// `Unit::NONE` (no metadata) is compatible with anything; two distinct
    /// *concrete* units in one group are a [`QueryError::MixedUnits`] error
    /// instead of a silently wrong unit label.
    #[default]
    Strict,
    /// The first sensor's unit wins, silently.
    Lenient,
}

/// Ordering of the series in a [`QueryResponse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeriesOrder {
    /// By group key (or topic), ascending — the deterministic default.
    #[default]
    Key,
    /// Hottest first: by each series' mean value, descending ("which rack
    /// draws the most power").
    MeanDesc,
}

/// A typed query over the sensor tree, built with a fluent builder and
/// executed by [`SensorDb::execute`](crate::SensorDb::execute).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Topic or hierarchy prefix the query targets.
    pub target: String,
    /// How `target` resolves ([`TargetMode::Auto`] by default).
    pub mode: TargetMode,
    /// Half-open time range `[start, end)`.
    pub range: TimeRange,
    /// Aggregation; `None` returns raw readings.
    pub agg: Option<AggFn>,
    /// Window size for windowed aggregation.  With `agg` set but no window,
    /// sensors interpolate onto the union of their timestamps and `agg`
    /// folds the samples per grid point (the one-shot "rack power right
    /// now" aggregate).
    pub window_ns: Option<i64>,
    /// Partition the resolved sensors by their topic's first `n` hierarchy
    /// components; each group becomes one response series.  Requires `agg`.
    pub group_by: Option<usize>,
    /// Keep only the most recent `n` readings of every series.
    pub limit: Option<usize>,
    /// Response series ordering.
    pub order: SeriesOrder,
    /// Unit handling under fan-in.
    pub units: UnitMode,
    /// Opt into per-stage tracing: the response carries a
    /// [`TraceSpan`](dcdb_obs::TraceSpan) tree (stage wall times, blocks
    /// decoded, cache hits) — `dcdbquery --explain`.  Traced execution is
    /// bit-identical to untraced.
    pub trace: bool,
}

impl QueryRequest {
    /// A request targeting `topic_or_prefix` with [`TargetMode::Auto`]
    /// resolution over all time.
    pub fn new(topic_or_prefix: &str) -> QueryRequest {
        QueryRequest {
            target: topic_or_prefix.to_string(),
            mode: TargetMode::Auto,
            range: TimeRange::all(),
            agg: None,
            window_ns: None,
            group_by: None,
            limit: None,
            order: SeriesOrder::Key,
            units: UnitMode::Strict,
            trace: false,
        }
    }

    /// A request for exactly one topic ([`TargetMode::Exact`]).
    pub fn topic(topic: &str) -> QueryRequest {
        QueryRequest { mode: TargetMode::Exact, ..QueryRequest::new(topic) }
    }

    /// A request fanning over the sub-tree below `prefix`
    /// ([`TargetMode::Subtree`]).
    pub fn subtree(prefix: &str) -> QueryRequest {
        QueryRequest { mode: TargetMode::Subtree, ..QueryRequest::new(prefix) }
    }

    /// Restrict to `[start, end)`.
    pub fn range(mut self, range: TimeRange) -> QueryRequest {
        self.range = range;
        self
    }

    /// Windowed aggregation: `agg` over fixed `window_ns` windows.
    pub fn aggregate(mut self, agg: AggFn, window_ns: i64) -> QueryRequest {
        self.agg = Some(agg);
        self.window_ns = Some(window_ns);
        self
    }

    /// Union-grid aggregation: interpolate every sensor onto the union of
    /// their timestamps and fold `agg` over the samples at each grid point.
    pub fn aggregate_interpolated(mut self, agg: AggFn) -> QueryRequest {
        self.agg = Some(agg);
        self.window_ns = None;
        self
    }

    /// Group the fan-in by the topics' first `level` hierarchy components.
    pub fn group_by(mut self, level: usize) -> QueryRequest {
        self.group_by = Some(level);
        self
    }

    /// Keep only the most recent `n` readings per series.
    pub fn limit(mut self, n: usize) -> QueryRequest {
        self.limit = Some(n);
        self
    }

    /// Order the response series.
    pub fn order(mut self, order: SeriesOrder) -> QueryRequest {
        self.order = order;
        self
    }

    /// Let the first sensor's unit win under fan-in ([`UnitMode::Lenient`]).
    pub fn lenient_units(mut self) -> QueryRequest {
        self.units = UnitMode::Lenient;
        self
    }

    /// Return a per-stage [`TraceSpan`](dcdb_obs::TraceSpan) tree with the
    /// response (`dcdbquery --explain`).  Results stay bit-identical.
    pub fn traced(mut self) -> QueryRequest {
        self.trace = true;
        self
    }

    /// Parse a request from named text parameters — a URL query string or
    /// CLI flags, looked up through `param`.  This is the one place the
    /// accepted spellings live:
    ///
    /// | parameter | spellings | value |
    /// |---|---|---|
    /// | target | `topic` | sensor topic or hierarchy prefix (required) |
    /// | range | `start`, `end` | nanoseconds; `default_range` where absent |
    /// | aggregation | `agg` | any [`AggFn`] name |
    /// | window | `window` \| `intervalMs` | a duration (`30s`, `5m`, bare ns) \| milliseconds |
    /// | grouping | `groupby` \| `groupBy` \| `group-by` | hierarchy level |
    ///
    /// A raw request (no `agg`) targets exactly the topic; an aggregated one
    /// resolves with [`TargetMode::Auto`].  What an endpoint does about an
    /// absent window — fall back, refuse — is the endpoint's business: the
    /// request comes back with `window_ns: None`.
    ///
    /// # Errors
    /// [`QueryError::InvalidRequest`] for a missing topic, any value that
    /// does not parse, a non-positive window, or `start >= end`.
    pub fn from_params<'a>(
        param: impl Fn(&str) -> Option<&'a str>,
        default_range: TimeRange,
    ) -> Result<QueryRequest, QueryError> {
        let bad = |what: &str| QueryError::InvalidRequest(what.to_string());
        let topic = param("topic").ok_or_else(|| bad("missing topic"))?;
        let bound = |name: &str, default: i64| {
            param(name).map_or(Ok(default), |v| v.parse().map_err(|_| bad(&format!("bad {name}"))))
        };
        let start = bound("start", default_range.start)?;
        let end = bound("end", default_range.end)?;
        if start >= end {
            return Err(bad("start must precede end"));
        }
        let agg = param("agg")
            .map(|name| AggFn::parse(name).ok_or_else(|| bad("unknown agg")))
            .transpose()?;
        let window_ns = match (param("window"), param("intervalMs")) {
            (Some(dur), _) => Some(dcdb_query::parse_duration_ns(dur)),
            (None, Some(ms)) => {
                Some(ms.parse::<i64>().ok().and_then(|ms| ms.checked_mul(1_000_000)))
            }
            (None, None) => None,
        }
        .map(|w| w.filter(|&w| w > 0).ok_or_else(|| bad("bad window")))
        .transpose()?;
        let group_by = ["groupby", "groupBy", "group-by"]
            .iter()
            .find_map(|name| param(name))
            .map(|level| level.parse::<usize>().map_err(|_| bad("bad group-by level")))
            .transpose()?;
        Ok(QueryRequest {
            mode: if agg.is_some() { TargetMode::Auto } else { TargetMode::Exact },
            range: TimeRange::new(start, end),
            agg,
            window_ns,
            group_by,
            ..QueryRequest::new(topic)
        })
    }

    /// The request an HTTP request's query string spells (see
    /// [`from_params`](Self::from_params)); without `start`/`end` it covers
    /// everything since the epoch.
    ///
    /// # Errors
    /// [`QueryError::InvalidRequest`], which [`QueryError::to_response`]
    /// turns into a `400`.
    pub fn from_url(req: &dcdb_http::server::Request) -> Result<QueryRequest, QueryError> {
        QueryRequest::from_params(|name| req.query_param(name), TimeRange::new(0, i64::MAX))
    }

    /// Check the request's internal consistency (ranges, windows, group-by
    /// prerequisites).  [`SensorDb::execute`](crate::SensorDb::execute)
    /// calls this first, so every surface rejects malformed requests with
    /// the same typed error.
    ///
    /// # Errors
    /// Returns [`QueryError::InvalidRequest`] describing the first problem.
    pub fn validate(&self) -> Result<(), QueryError> {
        if let Some(w) = self.window_ns {
            if self.agg.is_none() {
                return Err(QueryError::InvalidRequest("a window needs an aggregation".into()));
            }
            if w <= 0 {
                return Err(QueryError::InvalidRequest("window must be positive".into()));
            }
        }
        if let Some(level) = self.group_by {
            if self.agg.is_none() {
                return Err(QueryError::InvalidRequest("group_by needs an aggregation".into()));
            }
            if level == 0 || level > dcdb_sid::LEVELS {
                return Err(QueryError::InvalidRequest(format!(
                    "group_by level {level} outside 1..={}",
                    dcdb_sid::LEVELS
                )));
            }
        }
        if self.agg == Some(AggFn::Rate) && self.window_ns.is_none() {
            return Err(QueryError::InvalidRequest(
                "rate needs a window (interpolated rate is undefined)".into(),
            ));
        }
        Ok(())
    }
}

/// Errors produced by [`SensorDb::execute`](crate::SensorDb::execute).
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// A fan-in group mixes distinct concrete units (e.g. W and J): the
    /// aggregate would be physically meaningless, and the old API silently
    /// labelled it with the first sensor's unit.
    MixedUnits {
        /// The group key (or fan-in prefix) whose sensors disagree.
        group: String,
        /// The distinct unit names found, in first-seen order.
        units: Vec<&'static str>,
    },
    /// The request is self-contradictory (bad range/window/group-by).
    InvalidRequest(String),
    /// Virtual-sensor evaluation failed.
    Virtual(VsError),
}

impl QueryError {
    /// The HTTP response for a failed query: `400` when the request itself
    /// was at fault, `500` otherwise, with the error text as the body.
    pub fn to_response(&self) -> Response {
        let status = match self {
            QueryError::MixedUnits { .. } | QueryError::InvalidRequest(_) => StatusCode::BadRequest,
            QueryError::Virtual(_) => StatusCode::InternalError,
        };
        Response::error(status, &self.to_string())
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::MixedUnits { group, units } => {
                write!(f, "mixed units under {group:?}: {}", units.join(" vs "))
            }
            QueryError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            QueryError::Virtual(e) => write!(f, "virtual sensor: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<VsError> for QueryError {
    fn from(e: VsError) -> Self {
        QueryError::Virtual(e)
    }
}

/// One series of a [`QueryResponse`]: the data plus where it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSeries {
    /// The group key (the topic prefix naming the group) for grouped
    /// queries; `None` for ungrouped single-series results and raw
    /// per-sensor series.
    pub key: Option<String>,
    /// Number of sensors fanned into this series.
    pub sensors: usize,
    /// The series itself (topic, readings, unit).
    pub series: Series,
}

/// The result of [`SensorDb::execute`](crate::SensorDb::execute): one or
/// more series, each tagged with its group key and unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryResponse {
    /// Result series, in the requested [`SeriesOrder`].
    pub series: Vec<GroupSeries>,
    /// The per-stage span tree, present iff the request set
    /// [`QueryRequest::traced`].
    pub trace: Option<dcdb_obs::TraceSpan>,
}

impl QueryResponse {
    /// Total readings across all series.
    pub fn len(&self) -> usize {
        self.series.iter().map(|s| s.series.readings.len()).sum()
    }

    /// True when no series (or only empty series) came back.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collapse into a single [`Series`]: the first one, or an empty
    /// default series for an empty response.
    pub fn into_single(mut self) -> Series {
        if self.series.is_empty() {
            return Series { topic: String::new(), readings: Vec::new(), unit: Default::default() };
        }
        self.series.swap_remove(0).series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let req = QueryRequest::new("/sys")
            .range(TimeRange::new(0, 100))
            .aggregate(AggFn::Avg, 10)
            .group_by(2)
            .limit(5)
            .order(SeriesOrder::MeanDesc);
        assert_eq!(req.mode, TargetMode::Auto);
        assert_eq!(req.agg, Some(AggFn::Avg));
        assert_eq!(req.window_ns, Some(10));
        assert_eq!(req.group_by, Some(2));
        assert_eq!(req.limit, Some(5));
        assert!(req.validate().is_ok());
        assert_eq!(QueryRequest::topic("/a").mode, TargetMode::Exact);
        assert_eq!(QueryRequest::subtree("/a").mode, TargetMode::Subtree);
    }

    #[test]
    fn validation_catches_contradictions() {
        // a degenerate range is valid — it just matches nothing
        assert!(QueryRequest::new("/a").range(TimeRange::new(5, 5)).validate().is_ok());
        let groupby_raw = QueryRequest::new("/a").group_by(2);
        assert!(groupby_raw.validate().is_err());
        let zero_window = QueryRequest::new("/a").aggregate(AggFn::Avg, 0);
        assert!(zero_window.validate().is_err());
        let deep = QueryRequest::new("/a").aggregate(AggFn::Avg, 1).group_by(99);
        assert!(deep.validate().is_err());
        let interp_rate = QueryRequest::new("/a").aggregate_interpolated(AggFn::Rate);
        assert!(interp_rate.validate().is_err());
        let ok = QueryRequest::new("/a").aggregate_interpolated(AggFn::Sum);
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn from_params_defaults_and_rejections() {
        fn parse(params: &[(&str, &str)]) -> Result<QueryRequest, QueryError> {
            QueryRequest::from_params(
                |name| params.iter().find(|(k, _)| *k == name).map(|&(_, v)| v),
                TimeRange::new(0, i64::MAX),
            )
        }
        // a raw request is exact and takes the caller's default range
        assert_eq!(
            parse(&[("topic", "/a")]),
            Ok(QueryRequest::topic("/a").range(TimeRange::new(0, i64::MAX)))
        );
        // an absent window is left to the endpoint
        assert_eq!(parse(&[("topic", "/a"), ("agg", "avg")]).unwrap().window_ns, None);
        for params in [
            &[][..],
            &[("topic", "/a"), ("start", "9"), ("end", "1")],
            &[("topic", "/a"), ("start", "5"), ("end", "5")],
            &[("topic", "/a"), ("end", "soon")],
            &[("topic", "/a"), ("agg", "bogus")],
            &[("topic", "/a"), ("agg", "avg"), ("window", "eternity")],
            &[("topic", "/a"), ("agg", "avg"), ("intervalMs", "0")],
            &[("topic", "/a"), ("agg", "avg"), ("window", "1s"), ("groupBy", "x")],
        ] {
            assert!(matches!(parse(params), Err(QueryError::InvalidRequest(_))), "{params:?}");
        }
    }

    #[test]
    fn errors_render() {
        let e = QueryError::MixedUnits { group: "/r0".into(), units: vec!["W", "J"] };
        assert_eq!(e.to_string(), "mixed units under \"/r0\": W vs J");
        assert!(QueryError::InvalidRequest("x".into()).to_string().contains("x"));
    }
}
