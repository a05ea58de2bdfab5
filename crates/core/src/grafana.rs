//! The Grafana data-source API (paper §5.4, Fig. 3).
//!
//! Grafana has no Cassandra plugin, so the paper implements one on top of
//! libDCDB.  Its distinguishing feature — absent from other data sources —
//! is *hierarchical* metric selection: drop-down menus per hierarchy level
//! (system → rack → chassis → node) backed by the sensor tree.  This module
//! provides the same operations as a JSON/HTTP API:
//!
//! * `GET /search?prefix=/a/b&level=N` — children at one hierarchy level
//!   (fills one drop-down),
//! * `GET /query?topic=/a/b/c&start=NS&end=NS&maxDataPoints=N` — a series,
//!   downsampled for display,
//! * `GET /query?...&agg=avg&intervalMs=300000` — *windowed aggregation*
//!   with pushdown: Grafana's `intervalMs` maps to the window size, `agg`
//!   is any `dcdb_query::AggFn` name (`avg`, `min`, `max`, `sum`, `count`,
//!   `stddev`, `p99`, `rate`, …), and `topic` may be a hierarchy *prefix*
//!   (fan-in over the sub-tree).  When `intervalMs` is absent the window
//!   falls out of `(end − start) / maxDataPoints`,
//! * `GET /query?...&agg=avg&groupBy=N` — *grouped* aggregation: instead of
//!   one fanned-in series, sensors partition by their topic's first `N`
//!   hierarchy components and every group aggregates into its own series
//!   (evaluated in parallel), returned as a JSON array of series objects
//!   tagged with their `group` key — one Grafana panel line per rack/node,
//! * `GET /annotations` style stats: `GET /stats?topic=...` (min/max/avg of
//!   the plotted metric, like the panel legend),
//! * the routes shared with the Collect Agent's REST API
//!   ([`observability_routes`]): `/metrics`, `/alerts`, `/events`,
//!   `/debug/slow_queries` and `/debug/lockgraph`.
//!
//! Every data path builds a [`crate::QueryRequest`] and goes through
//! [`SensorDb::execute`].

use std::net::SocketAddr;
use std::sync::Arc;

use dcdb_http::json::Json;
use dcdb_http::server::{HttpServer, Method, Response, StatusCode};
use dcdb_http::Router;

use crate::api::{SensorDb, Series};
use crate::ops;
use crate::request::QueryRequest;

/// Build the data-source router over `db`.
pub fn router(db: Arc<SensorDb>) -> Router {
    let mut r = Router::new();

    let d = Arc::clone(&db);
    r.add(Method::Get, "/search", move |req| {
        let prefix = req.query_param("prefix").unwrap_or("/").to_string();
        let level = req.query_parsed("level", 0usize);
        let children: Vec<Json> =
            d.registry().children_at(&prefix, level).into_iter().map(Json::Str).collect();
        Response::json(&Json::Arr(children))
    });

    let d = Arc::clone(&db);
    r.add(Method::Get, "/query", move |req| {
        let mut q = match QueryRequest::from_url(req) {
            Ok(q) => q,
            Err(e) => return e.to_response(),
        };
        let max_points = req.query_parsed("maxDataPoints", 1_000usize);
        // Grafana sends its panel resolution as intervalMs with every
        // request: a raw series has no use for it, and an aggregation
        // without it spreads the range over maxDataPoints windows
        if q.agg.is_none() {
            q.window_ns = None;
        } else if q.window_ns.is_none() {
            q.window_ns = Some((q.range.duration() / max_points.max(1) as i64).max(1));
        }
        match d.execute(&q) {
            // grouped responses are an array of tagged series; ungrouped
            // keep the single-object shape
            Ok(resp) if q.group_by.is_some() => {
                let series: Vec<Json> = resp
                    .series
                    .iter()
                    .map(|g| {
                        let mut obj = series_obj(&g.series, None);
                        obj.insert("group".into(), Json::str(g.key.clone().unwrap_or_default()));
                        obj.insert("sensors".into(), Json::Num(g.sensors as f64));
                        Json::Obj(obj)
                    })
                    .collect();
                Response::json(&Json::Arr(series))
            }
            Ok(resp) => {
                // raw series downsample to the panel resolution by bucket
                // means; aggregated readings are already windowed, and
                // averaging per-window maxima would change their meaning
                let downsample = q.agg.is_none().then_some(max_points);
                Response::json(&series_json(&resp.into_single(), downsample))
            }
            Err(e) => e.to_response(),
        }
    });

    observability_routes(&mut r, &db);

    let d = Arc::clone(&db);
    r.add(Method::Get, "/stats", move |req| {
        let q = match QueryRequest::from_url(req) {
            Ok(q) => q,
            Err(e) => return e.to_response(),
        };
        match d.query(&q.target, q.range) {
            Ok(series) => match ops::stats(&series.readings) {
                Some(st) => Response::json(&Json::obj([
                    ("count", Json::Num(st.count as f64)),
                    ("min", Json::Num(st.min)),
                    ("max", Json::Num(st.max)),
                    ("avg", Json::Num(st.mean)),
                ])),
                None => Response::error(StatusCode::NotFound, "no data in range"),
            },
            Err(e) => Response::error(StatusCode::InternalError, &e.to_string()),
        }
    });

    r
}

/// Register the routes every REST surface serves over its one handle:
/// `/metrics`, `/alerts`, `/events`, `/debug/slow_queries` and
/// `/debug/lockgraph`.  The Grafana router and the Collect Agent's REST
/// API both call this.
pub fn observability_routes(r: &mut Router, db: &Arc<SensorDb>) {
    let d = Arc::clone(db);
    r.add(Method::Get, "/metrics", move |_req| metrics_response(&d));
    let d = Arc::clone(db);
    r.add(Method::Get, "/alerts", move |_req| alerts_response(&d));
    let d = Arc::clone(db);
    r.add(Method::Get, "/events", move |req| events_response(&d, req));
    let d = Arc::clone(db);
    r.add(Method::Get, "/debug/slow_queries", move |_req| slow_queries_response(&d));
    r.add(Method::Get, "/debug/lockgraph", move |_req| lockgraph_response());
}

/// `GET /metrics`: the Prometheus text exposition of the cluster's whole
/// registry, with the `ALERTS{alertname=...,state=...}` block appended
/// when an alert engine is installed.  Served with the exposition-format
/// content type (`text/plain; version=0.0.4`) so scrapers negotiate it.
fn metrics_response(db: &SensorDb) -> Response {
    let mut text = db.metrics().render_prometheus();
    if let Some(engine) = db.alert_engine() {
        text.push_str(&engine.render_prometheus());
    }
    Response::prometheus(text)
}

/// `GET /alerts`: every known alert instance as JSON, plus engine totals.
/// Empty-but-valid when no engine is installed.
fn alerts_response(db: &SensorDb) -> Response {
    let (alerts, notifications, transitions) = match db.alert_engine() {
        Some(engine) => (engine.alerts(), engine.notifications(), engine.transitions()),
        None => (Vec::new(), 0, 0),
    };
    let arr: Vec<Json> = alerts
        .iter()
        .map(|a| {
            Json::obj([
                ("rule", Json::str(a.rule.clone())),
                ("topic", Json::str(a.topic.clone())),
                ("state", Json::str(a.state.as_str())),
                ("sinceNs", Json::Num(a.since_ns as f64)),
                ("value", Json::Num(a.value)),
                ("message", Json::str(a.message.clone())),
                ("notifications", Json::Num(a.notifications as f64)),
            ])
        })
        .collect();
    Response::json(&Json::obj([
        ("alerts", Json::Arr(arr)),
        ("notifications", Json::Num(notifications as f64)),
        ("transitions", Json::Num(transitions as f64)),
    ]))
}

/// `GET /events?since=<seq>`: the structured event journal, strictly after
/// `since` (0 = everything still buffered).  Clients page by passing the
/// `lastSeq` they saw; `dropped` counts events lost to ring overflow.
fn events_response(db: &SensorDb, req: &dcdb_http::server::Request) -> Response {
    let journal = db.events();
    let since = req.query_parsed("since", 0u64);
    let events: Vec<Json> = journal
        .since(since)
        .iter()
        .map(|e| {
            Json::obj([
                ("seq", Json::Num(e.seq as f64)),
                ("tsNs", Json::Num(e.ts_unix_ns as f64)),
                ("kind", Json::str(e.kind.as_str())),
                ("severity", Json::str(e.severity.as_str())),
                ("subject", Json::str(e.subject.clone())),
                ("message", Json::str(e.message.clone())),
            ])
        })
        .collect();
    Response::json(&Json::obj([
        ("events", Json::Arr(events)),
        ("lastSeq", Json::Num(journal.last_seq() as f64)),
        ("dropped", Json::Num(journal.dropped() as f64)),
    ]))
}

/// `GET /debug/slow_queries`: the last offenders over the slow-query
/// threshold, each with its full trace-span tree (nested JSON) and the
/// human-readable rendering `dcdbquery --trace` prints.
fn slow_queries_response(db: &SensorDb) -> Response {
    let log = db.slow_queries();
    let queries: Vec<Json> = log
        .entries()
        .iter()
        .map(|q| {
            Json::obj([
                ("seq", Json::Num(q.seq as f64)),
                ("tsNs", Json::Num(q.ts_unix_ns as f64)),
                ("totalNs", Json::Num(q.total_ns as f64)),
                ("summary", Json::str(q.summary.clone())),
                ("trace", trace_json(&q.trace)),
                ("rendered", Json::str(q.trace.render())),
            ])
        })
        .collect();
    Response::json(&Json::obj([
        ("thresholdNs", Json::Num(log.threshold_ns() as f64)),
        ("captured", Json::Num(log.total_captured() as f64)),
        ("queries", Json::Arr(queries)),
    ]))
}

/// `GET /debug/lockgraph`: the lock-order edges the runtime tracker has
/// observed so far (`lock-trace` feature; empty with `enabled: false`
/// otherwise).  Compare against the static graph in
/// `results/LINT_report.json` — every observed edge should be there.
fn lockgraph_response() -> Response {
    let edges: Vec<Json> = dcdb_obs::lockgraph::edges()
        .into_iter()
        .map(|(from, to)| Json::obj([("from", Json::str(from)), ("to", Json::str(to))]))
        .collect();
    Response::json(&Json::obj([
        ("enabled", Json::Bool(dcdb_obs::lockgraph::enabled())),
        ("edges", Json::Arr(edges)),
    ]))
}

/// A trace-span tree as nested JSON.
fn trace_json(span: &dcdb_obs::TraceSpan) -> Json {
    let meta: Vec<(String, Json)> =
        span.meta.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect();
    Json::obj([
        ("stage", Json::str(span.stage.clone())),
        ("wallNs", Json::Num(span.wall_ns as f64)),
        ("meta", Json::Obj(meta.into_iter().collect())),
        ("children", Json::Arr(span.children.iter().map(trace_json).collect())),
    ])
}

/// One series as a Grafana data-source object; raw series downsample to
/// `max_points` by bucket means, aggregated series pass `None`.
fn series_json(series: &Series, max_points: Option<usize>) -> Json {
    Json::Obj(series_obj(series, max_points))
}

/// The key/value pairs behind [`series_json`]; the grouped path extends
/// them with `group`/`sensors` metadata before wrapping.
fn series_obj(
    series: &Series,
    max_points: Option<usize>,
) -> std::collections::BTreeMap<String, Json> {
    let points = match max_points {
        Some(n) => ops::downsample(&series.readings, n),
        None => series.readings.clone(),
    };
    let datapoints: Vec<Json> = points
        .iter()
        .map(|r| Json::Arr(vec![Json::Num(r.value), Json::Num(r.ts as f64)]))
        .collect();
    [
        ("target".to_string(), Json::str(series.topic.clone())),
        ("unit".to_string(), Json::str(series.unit.name)),
        ("datapoints".to_string(), Json::Arr(datapoints)),
    ]
    .into_iter()
    .collect()
}

/// Serve the data source on `bind`.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(db: Arc<SensorDb>, bind: SocketAddr) -> std::io::Result<HttpServer> {
    HttpServer::start(bind, router(db).into_handler())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_http::server::Request;
    use dcdb_store::reading::TimeRange;
    use std::collections::HashMap;

    fn handler() -> (Arc<SensorDb>, dcdb_http::server::Handler) {
        let db = SensorDb::in_memory();
        for rack in 0..2 {
            for node in 0..3 {
                let t = format!("/lrz/sys/rack{rack}/node{node}/power");
                for ts in 0..100 {
                    db.insert(&t, ts * 1_000_000, 200.0 + node as f64).unwrap();
                }
            }
        }
        let h = router(Arc::clone(&db)).into_handler();
        (db, h)
    }

    fn get(h: &dcdb_http::server::Handler, path: &str, query: &[(&str, &str)]) -> (u16, Json) {
        let req = Request {
            method: Method::Get,
            path: path.to_string(),
            query: query.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            params: HashMap::new(),
            headers: HashMap::new(),
            body: Vec::new(),
        };
        let resp = h(&req);
        let body = String::from_utf8_lossy(&resp.body).into_owned();
        (resp.status.code(), Json::parse(&body).unwrap_or(Json::Null))
    }

    #[test]
    fn search_walks_hierarchy_levels() {
        let (_db, h) = handler();
        let (code, j) = get(&h, "/search", &[("prefix", "/lrz/sys"), ("level", "2")]);
        assert_eq!(code, 200);
        let racks: Vec<&str> = j.as_arr().unwrap().iter().filter_map(Json::as_str).collect();
        assert_eq!(racks, vec!["rack0", "rack1"]);
        let (_, j) = get(&h, "/search", &[("prefix", "/lrz/sys/rack0"), ("level", "3")]);
        assert_eq!(j.as_arr().unwrap().len(), 3);
    }

    #[test]
    fn query_returns_grafana_datapoints() {
        let (_db, h) = handler();
        let (code, j) = get(
            &h,
            "/query",
            &[("topic", "/lrz/sys/rack0/node1/power"), ("start", "0"), ("end", "100000000")],
        );
        assert_eq!(code, 200);
        assert_eq!(j.get("unit").unwrap().as_str(), Some(""));
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 100);
        // [value, timestamp] pairs
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(201.0));
    }

    #[test]
    fn query_downsamples() {
        let (_db, h) = handler();
        let (_, j) =
            get(&h, "/query", &[("topic", "/lrz/sys/rack0/node0/power"), ("maxDataPoints", "10")]);
        assert!(j.get("datapoints").unwrap().as_arr().unwrap().len() <= 10);
    }

    #[test]
    fn bad_requests_rejected() {
        let (_db, h) = handler();
        assert_eq!(get(&h, "/query", &[]).0, 400);
        assert_eq!(get(&h, "/query", &[("topic", "/x"), ("start", "9"), ("end", "1")]).0, 400);
        assert_eq!(get(&h, "/query", &[("topic", "/x"), ("agg", "bogus")]).0, 400);
        assert_eq!(get(&h, "/stats", &[("topic", "/nope/x")]).0, 404);
        // a reversed range used to reach TimeRange::new's assert and kill
        // the connection thread
        let (code, j) = get(&h, "/stats", &[("topic", "/x"), ("start", "5"), ("end", "1")]);
        assert_eq!(code, 400);
        assert_eq!(
            j.get("error").unwrap().as_str(),
            Some("invalid request: start must precede end")
        );
    }

    #[test]
    fn windowed_aggregation_over_interval_ms() {
        let (db, h) = handler();
        // 100 readings at 1 ms spacing; 10 ms windows → 10 points
        let (code, j) = get(
            &h,
            "/query",
            &[
                ("topic", "/lrz/sys/rack0/node1/power"),
                ("start", "0"),
                ("end", "100000000"),
                ("agg", "avg"),
                ("intervalMs", "10"),
            ],
        );
        assert_eq!(code, 200);
        assert_eq!(j.get("target").unwrap().as_str(), Some("/lrz/sys/rack0/node1/power/+avg"));
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 10);
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(201.0));
        // the endpoint reports exactly what the library API computes
        let lib = db
            .execute(
                &QueryRequest::new("/lrz/sys/rack0/node1/power")
                    .range(TimeRange::new(0, 100_000_000))
                    .aggregate(dcdb_query::AggFn::Avg, 10_000_000),
            )
            .unwrap()
            .into_single();
        assert_eq!(lib.readings.len(), dp.len());
        for (r, p) in lib.readings.iter().zip(dp) {
            assert_eq!(p.idx(0).unwrap().as_f64(), Some(r.value));
            assert_eq!(p.idx(1).unwrap().as_f64(), Some(r.ts as f64));
        }
    }

    #[test]
    fn aggregation_fans_in_over_prefix() {
        let (_db, h) = handler();
        // sum of all of rack0's node power sensors (200 + 201 + 202)
        let (code, j) = get(
            &h,
            "/query",
            &[
                ("topic", "/lrz/sys/rack0"),
                ("start", "0"),
                ("end", "100000000"),
                ("agg", "sum"),
                ("intervalMs", "1"),
            ],
        );
        assert_eq!(code, 200);
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 100);
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(603.0));
    }

    #[test]
    fn aggregated_series_are_not_mean_downsampled() {
        let (_db, h) = handler();
        // 100 one-ms windows but maxDataPoints=10: the per-window maxima
        // must come back untouched, not averaged into buckets
        let (code, j) = get(
            &h,
            "/query",
            &[
                ("topic", "/lrz/sys/rack0/node2/power"),
                ("start", "0"),
                ("end", "100000000"),
                ("agg", "max"),
                ("intervalMs", "1"),
                ("maxDataPoints", "10"),
            ],
        );
        assert_eq!(code, 200);
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 100, "explicit intervalMs wins over maxDataPoints");
        assert!(dp.iter().all(|p| p.idx(0).unwrap().as_f64() == Some(202.0)));
    }

    #[test]
    fn aggregation_window_defaults_to_max_points() {
        let (_db, h) = handler();
        let (code, j) = get(
            &h,
            "/query",
            &[
                ("topic", "/lrz/sys/rack0/node0/power"),
                ("start", "0"),
                ("end", "100000000"),
                ("agg", "max"),
                ("maxDataPoints", "5"),
            ],
        );
        assert_eq!(code, 200);
        assert!(j.get("datapoints").unwrap().as_arr().unwrap().len() <= 5);
    }

    #[test]
    fn group_by_returns_one_series_per_rack() {
        let (_db, h) = handler();
        let (code, j) = get(
            &h,
            "/query",
            &[
                ("topic", "/lrz/sys"),
                ("start", "0"),
                ("end", "100000000"),
                ("agg", "sum"),
                ("intervalMs", "1"),
                ("groupBy", "3"),
            ],
        );
        assert_eq!(code, 200);
        let series = j.as_arr().unwrap();
        assert_eq!(series.len(), 2, "{j:?}");
        let rack0 = &series[0];
        assert_eq!(rack0.get("group").unwrap().as_str(), Some("/lrz/sys/rack0"));
        assert_eq!(rack0.get("target").unwrap().as_str(), Some("/lrz/sys/rack0/+sum"));
        assert_eq!(rack0.get("sensors").unwrap().as_f64(), Some(3.0));
        let dp = rack0.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 100);
        // 200 + 201 + 202 per millisecond window
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(603.0));
        assert_eq!(series[1].get("group").unwrap().as_str(), Some("/lrz/sys/rack1"));
    }

    #[test]
    fn group_by_validation_errors_are_client_errors() {
        let (_db, h) = handler();
        let q = [("topic", "/lrz/sys"), ("agg", "avg"), ("groupBy", "bogus")];
        assert_eq!(get(&h, "/query", &q).0, 400);
        let q = [("topic", "/lrz/sys"), ("agg", "avg"), ("groupBy", "99")];
        assert_eq!(get(&h, "/query", &q).0, 400);
        // groupBy without an aggregation is rejected, not silently dropped
        let q = [("topic", "/lrz/sys"), ("groupBy", "2")];
        assert_eq!(get(&h, "/query", &q).0, 400);
    }

    #[test]
    fn mixed_units_rejected_with_a_clear_error() {
        let (db, h) = handler();
        db.set_meta(
            "/lrz/sys/rack0/node0/power",
            crate::api::SensorMeta::with_unit(crate::units::Unit::WATT),
        );
        db.set_meta(
            "/lrz/sys/rack0/node1/power",
            crate::api::SensorMeta::with_unit(crate::units::Unit::JOULE),
        );
        let (code, _) =
            get(&h, "/query", &[("topic", "/lrz/sys/rack0"), ("agg", "avg"), ("intervalMs", "10")]);
        assert_eq!(code, 400, "mixed W/J fan-in must not silently aggregate");
    }

    #[test]
    fn metrics_expose_prometheus_text() {
        let (db, h) = handler();
        db.execute(
            &QueryRequest::new("/lrz/sys/rack0").aggregate(dcdb_query::AggFn::Avg, 10_000_000),
        )
        .unwrap();
        let req = Request {
            method: Method::Get,
            path: "/metrics".to_string(),
            query: HashMap::new(),
            params: HashMap::new(),
            headers: HashMap::new(),
            body: Vec::new(),
        };
        let resp = h(&req);
        assert_eq!(resp.status.code(), 200);
        // the Prometheus text exposition format version, so scrapers
        // negotiate the format instead of guessing
        assert_eq!(resp.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("# TYPE dcdb_inserts_total counter"), "{text}");
        assert!(text.contains("# TYPE dcdb_query_stage_ns summary"), "{text}");
        assert!(text.contains("dcdb_query_stage_ns_count{stage=\"fold\"}"), "{text}");
        assert!(text.contains("dcdb_queries_total"), "{text}");
    }

    #[test]
    fn alerts_endpoint_tracks_engine_state() {
        let (db, h) = handler();
        // without an engine the endpoint answers an empty-but-valid shape
        let (code, j) = get(&h, "/alerts", &[]);
        assert_eq!(code, 200);
        assert!(j.get("alerts").unwrap().as_arr().unwrap().is_empty());
        let engine = Arc::new(crate::alerts::AlertEngine::new());
        engine.add_rule(crate::alerts::AlertRule::new(
            "hot",
            "/lrz/sys/+/+/power",
            crate::alerts::AlertCondition::Above(201.5),
        ));
        db.set_alert_engine(Arc::clone(&engine));
        engine.observe("/lrz/sys/rack0/node2/power", 1_000, 202.0);
        let (code, j) = get(&h, "/alerts", &[]);
        assert_eq!(code, 200);
        let alerts = j.get("alerts").unwrap().as_arr().unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("rule").unwrap().as_str(), Some("hot"));
        assert_eq!(alerts[0].get("state").unwrap().as_str(), Some("firing"));
        assert_eq!(alerts[0].get("topic").unwrap().as_str(), Some("/lrz/sys/rack0/node2/power"));
        assert_eq!(j.get("notifications").unwrap().as_f64(), Some(1.0));
        // and the firing instance shows up in the /metrics exposition
        let (_, _) = get(&h, "/metrics", &[]);
        let req = Request {
            method: Method::Get,
            path: "/metrics".to_string(),
            query: HashMap::new(),
            params: HashMap::new(),
            headers: HashMap::new(),
            body: Vec::new(),
        };
        let text = String::from_utf8(h(&req).body).unwrap();
        assert!(text.contains("ALERTS{alertname=\"hot\",state=\"firing\""), "{text}");
        assert!(text.contains("dcdb_alerts_notifications_total 1"), "{text}");
    }

    #[test]
    fn events_endpoint_pages_by_sequence() {
        let (db, h) = handler();
        let journal = db.events();
        journal.record(
            dcdb_obs::EventKind::ConfigChange,
            dcdb_obs::Severity::Info,
            "test",
            "first",
        );
        journal.record(
            dcdb_obs::EventKind::BackpressureStall,
            dcdb_obs::Severity::Warning,
            "store",
            "second",
        );
        let (code, j) = get(&h, "/events", &[]);
        assert_eq!(code, 200);
        let events = j.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("config_change"));
        assert_eq!(events[1].get("severity").unwrap().as_str(), Some("warning"));
        let last = j.get("lastSeq").unwrap().as_f64().unwrap();
        // paging from the first event's seq returns only the second
        let first_seq = events[0].get("seq").unwrap().as_f64().unwrap();
        let (_, j) = get(&h, "/events", &[("since", &format!("{first_seq}"))]);
        let events = j.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("message").unwrap().as_str(), Some("second"));
        // and from the last seq, nothing
        let (_, j) = get(&h, "/events", &[("since", &format!("{last}"))]);
        assert!(j.get("events").unwrap().as_arr().unwrap().is_empty());
    }

    #[test]
    fn slow_queries_endpoint_exposes_span_trees() {
        let (db, h) = handler();
        let (code, j) = get(&h, "/debug/slow_queries", &[]);
        assert_eq!(code, 200);
        assert_eq!(j.get("thresholdNs").unwrap().as_f64(), Some(0.0));
        assert!(j.get("queries").unwrap().as_arr().unwrap().is_empty());
        db.slow_queries().set_threshold_ns(1);
        db.execute(
            &QueryRequest::new("/lrz/sys/rack0").aggregate(dcdb_query::AggFn::Avg, 10_000_000),
        )
        .unwrap();
        let (_, j) = get(&h, "/debug/slow_queries", &[]);
        let queries = j.get("queries").unwrap().as_arr().unwrap();
        assert_eq!(queries.len(), 1);
        let q = &queries[0];
        assert!(q.get("summary").unwrap().as_str().unwrap().contains("/lrz/sys/rack0"));
        let trace = q.get("trace").unwrap();
        assert_eq!(trace.get("stage").unwrap().as_str(), Some("execute"));
        let children = trace.get("children").unwrap().as_arr().unwrap();
        assert_eq!(children[0].get("stage").unwrap().as_str(), Some("plan"));
        assert!(q.get("rendered").unwrap().as_str().unwrap().contains("execute"));
    }

    #[test]
    fn stats_summarise_series() {
        let (_db, h) = handler();
        let (code, j) = get(&h, "/stats", &[("topic", "/lrz/sys/rack1/node2/power")]);
        assert_eq!(code, 200);
        assert_eq!(j.get("count").unwrap().as_f64(), Some(100.0));
        assert_eq!(j.get("avg").unwrap().as_f64(), Some(202.0));
    }

    #[test]
    fn virtual_sensors_visible_to_grafana() {
        let (db, h) = handler();
        db.define_virtual(
            "/v/rack0_power",
            "\"/lrz/sys/rack0/node0/power\" + \"/lrz/sys/rack0/node1/power\" + \"/lrz/sys/rack0/node2/power\"",
            crate::units::Unit::WATT,
        )
        .unwrap();
        let (code, j) = get(&h, "/query", &[("topic", "/v/rack0_power")]);
        assert_eq!(code, 200);
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 100);
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(603.0));
    }
}
