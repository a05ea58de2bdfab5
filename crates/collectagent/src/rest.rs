//! The Collect Agent's RESTful API (paper §5.3).
//!
//! Analogous to the Pusher's: the most recent reading of every sensor the
//! connected Pushers feed, plus hierarchy navigation backing tools like
//! the Grafana data source.  Both sensor endpoints read the agent's one
//! handle (its topic registry and its store), not a table of the agent's
//! own.
//!
//! * `GET /sensors` — every topic the topic registry holds (normalised,
//!   sorted; the self-monitoring `/_dcdb/...` sensors included),
//! * `GET /cache/*topic` — latest reading of one sensor: the store's
//!   newest-wins reading (newest timestamp; deleted and expired readings
//!   excluded), value unscaled,
//! * `GET /hierarchy?prefix=/a/b&level=N` — children at a hierarchy level,
//! * `GET /aggregate?topic=/a/b&agg=avg&window=5m&start=NS&end=NS` —
//!   windowed aggregation straight off the agent's store (pushdown into
//!   compressed blocks via `dcdb-query`); `topic` may be a prefix, fanning
//!   in over the whole sub-tree,
//! * `GET /aggregate?...&groupby=N` — grouped aggregation: one series per
//!   sub-tree at hierarchy level `N`, evaluated in parallel and returned
//!   under a `groups` array,
//! * `GET /stats` — agent counters, plus the storage read-path counters
//!   (blocks decoded/corrupt and the decoded-block cache's
//!   capacity/used/hit/miss/eviction numbers), the write-path
//!   maintenance counters (flushes, compactions, coalesced merges, pending
//!   flush backlog, write stalls and the age of the most recent flush),
//!   latency quantiles (p50/p90/p99) and the alert engine's posture,
//! * `GET /alerts` — alert instances and engine totals,
//! * `GET /events?since=<seq>` — the structured event journal,
//! * `GET /debug/slow_queries` — the slow-query ring with full span trees,
//! * `GET /debug/lockgraph` — runtime-observed lock-order edges
//!   (`lock-trace` builds; `enabled: false` otherwise),
//! * `GET /metrics` — the Prometheus exposition, `ALERTS{}` included.
//!
//! `/aggregate` builds a typed `QueryRequest` and runs it through
//! `SensorDb::execute` — the same execution path as libDCDB, Grafana and
//! the CLI.

use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use dcdb_core::{QueryError, QueryRequest, SensorDb};
use dcdb_http::json::Json;
use dcdb_http::server::{HttpServer, Method, Response, StatusCode};
use dcdb_http::Router;

use crate::agent::CollectAgent;

/// Build the REST router for a Collect Agent.
pub fn router(agent: Arc<CollectAgent>) -> Router {
    let mut r = Router::new();
    let db = agent.sensor_db();

    let d = Arc::clone(&db);
    r.add(Method::Get, "/sensors", move |_req| {
        let topics = d.registry().sids_under("/").into_iter().map(|(t, _)| Json::Str(t));
        Response::json(&Json::Arr(topics.collect()))
    });

    let d = Arc::clone(&db);
    r.add(Method::Get, "/cache/*topic", move |req| {
        let topic = format!("/{}", req.param("topic").unwrap_or(""));
        match d.latest(&topic) {
            Some(r) => Response::json(&Json::obj([
                ("topic", Json::str(topic)),
                ("ts", Json::Num(r.ts as f64)),
                ("value", Json::Num(r.value)),
            ])),
            None => Response::error(StatusCode::NotFound, "unknown sensor"),
        }
    });

    let d = Arc::clone(&db);
    r.add(Method::Get, "/hierarchy", move |req| {
        let prefix = req.query_param("prefix").unwrap_or("/").to_string();
        let level = req.query_parsed("level", 0usize);
        let children: Vec<Json> =
            d.registry().children_at(&prefix, level).into_iter().map(Json::Str).collect();
        Response::json(&Json::obj([
            ("prefix", Json::str(prefix)),
            ("level", Json::Num(level as f64)),
            ("children", Json::Arr(children)),
        ]))
    });

    let d = Arc::clone(&db);
    r.add(Method::Get, "/aggregate", move |req| {
        // exact topic or sub-tree fan-in, through the unified query path
        let qreq = match QueryRequest::from_url(req) {
            Ok(qreq) => qreq,
            Err(e) => return e.to_response(),
        };
        let (Some(agg), Some(window_ns)) = (qreq.agg, qreq.window_ns) else {
            return QueryError::InvalidRequest("missing agg or window".into()).to_response();
        };
        let (topic, grouped) = (qreq.target.as_str(), qreq.group_by.is_some());
        let resp = match d.execute(&qreq) {
            Ok(resp) => resp,
            Err(e) => return e.to_response(),
        };
        let sensors: usize = resp.series.iter().map(|s| s.sensors).sum();
        let datapoints = |readings: &[dcdb_store::reading::Reading]| {
            Json::Arr(
                readings
                    .iter()
                    .map(|r| Json::Arr(vec![Json::Num(r.value), Json::Num(r.ts as f64)]))
                    .collect(),
            )
        };
        if grouped {
            let groups: Vec<Json> = resp
                .series
                .iter()
                .map(|g| {
                    Json::obj([
                        ("group", Json::str(g.key.clone().unwrap_or_default())),
                        ("sensors", Json::Num(g.sensors as f64)),
                        ("datapoints", datapoints(&g.series.readings)),
                    ])
                })
                .collect();
            Response::json(&Json::obj([
                ("topic", Json::str(topic)),
                ("agg", Json::str(agg.to_string())),
                ("windowNs", Json::Num(window_ns as f64)),
                ("sensors", Json::Num(sensors as f64)),
                ("groups", Json::Arr(groups)),
            ]))
        } else {
            let single = resp.into_single();
            Response::json(&Json::obj([
                ("topic", Json::str(topic)),
                ("agg", Json::str(agg.to_string())),
                ("windowNs", Json::Num(window_ns as f64)),
                ("sensors", Json::Num(sensors as f64)),
                ("datapoints", datapoints(&single.readings)),
            ]))
        }
    });

    dcdb_core::grafana::observability_routes(&mut r, &db);

    r.add(Method::Get, "/stats", move |_req| {
        let (store, s) = (db.store(), agent.stats());
        // registry-only values (the histograms have no legacy accessor)
        let snap = store.metrics().snapshot();
        let histo = |name: &str, q: f64| match snap.get(name) {
            Some(dcdb_obs::MetricValue::Histogram(h)) if h.count > 0 => h.quantile(q) as f64,
            _ => 0.0,
        };
        let scalar = |name: &str| match snap.get(name) {
            Some(dcdb_obs::MetricValue::Counter(v) | dcdb_obs::MetricValue::Gauge(v)) => *v as f64,
            _ => 0.0,
        };
        let cache = store.cache_stats();
        let maint = store.maintenance_stats();
        // how stale the durable state may be: seconds since the most
        // recent memtable flush anywhere in the cluster (-1 = never)
        let last_flush_age_s = if maint.last_flush_unix_ms == 0 {
            -1.0
        } else {
            let now_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            now_ms.saturating_sub(maint.last_flush_unix_ms) as f64 / 1000.0
        };
        Response::json(&Json::obj([
            ("messages", Json::Num(s.messages.load(Ordering::Relaxed) as f64)),
            ("readings", Json::Num(s.readings.load(Ordering::Relaxed) as f64)),
            ("dropped", Json::Num(s.dropped.load(Ordering::Relaxed) as f64)),
            ("busyNs", Json::Num(s.busy_ns.load(Ordering::Relaxed) as f64)),
            ("blocksDecoded", Json::Num(store.blocks_decoded() as f64)),
            ("blocksCorrupt", Json::Num(store.blocks_corrupt() as f64)),
            ("cacheCapacityReadings", Json::Num(cache.capacity_readings as f64)),
            ("cacheUsedReadings", Json::Num(cache.used_readings as f64)),
            ("cacheHits", Json::Num(cache.hits as f64)),
            ("cacheMisses", Json::Num(cache.misses as f64)),
            ("cacheEvictions", Json::Num(cache.evictions as f64)),
            ("maintenanceThreads", Json::Num(maint.threads as f64)),
            ("flushes", Json::Num(maint.flushes as f64)),
            ("compactions", Json::Num(maint.compactions as f64)),
            ("compactionsCoalesced", Json::Num(maint.compactions_coalesced as f64)),
            ("compactionNs", Json::Num(maint.compaction_ns as f64)),
            ("pendingFlushes", Json::Num(maint.pending_flushes as f64)),
            ("writeStalls", Json::Num(maint.stalls as f64)),
            ("writeStallNs", Json::Num(maint.stall_ns as f64)),
            ("lastFlushAgeS", Json::Num(last_flush_age_s)),
            // the registry-backed superset: query-path and ingest latency
            // numbers `/metrics` exposes, mirrored here structurally
            ("queryRequests", Json::Num(scalar("dcdb_query_requests_total"))),
            ("ingestHandleNsP50", Json::Num(histo("dcdb_ingest_handle_ns", 0.5))),
            ("ingestHandleNsP90", Json::Num(histo("dcdb_ingest_handle_ns", 0.9))),
            ("ingestHandleNsP99", Json::Num(histo("dcdb_ingest_handle_ns", 0.99))),
            ("insertLatencyNsP90", Json::Num(histo("dcdb_insert_latency_ns", 0.9))),
            ("insertLatencyNsP99", Json::Num(histo("dcdb_insert_latency_ns", 0.99))),
            ("flushNsP90", Json::Num(histo("dcdb_flush_ns", 0.9))),
            ("flushNsP99", Json::Num(histo("dcdb_flush_ns", 0.99))),
            // the alert engine's posture, compact (full detail on /alerts)
            ("alerts", alerts_block(&db)),
            // the event journal's high-water marks (full detail on /events)
            ("eventsTotal", Json::Num(scalar("dcdb_events_total"))),
            ("eventsDropped", Json::Num(scalar("dcdb_events_dropped_total"))),
        ]))
    });

    r
}

/// The `alerts` object on `/stats`: engine posture without the per-instance
/// detail (`null`-free; all zeros when no engine is installed).
fn alerts_block(db: &SensorDb) -> Json {
    let (rules, active, notifications, transitions) = match db.alert_engine() {
        Some(e) => (
            e.rules().len() as f64,
            e.active_count() as f64,
            e.notifications() as f64,
            e.transitions() as f64,
        ),
        None => (0.0, 0.0, 0.0, 0.0),
    };
    Json::obj([
        ("rules", Json::Num(rules)),
        ("active", Json::Num(active)),
        ("notifications", Json::Num(notifications)),
        ("transitions", Json::Num(transitions)),
    ])
}

/// Serve the REST API on `bind`.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(agent: Arc<CollectAgent>, bind: SocketAddr) -> std::io::Result<HttpServer> {
    HttpServer::start(bind, router(agent).into_handler())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_mqtt::payload::encode_readings;
    use dcdb_store::reading::TimeRange;
    use dcdb_store::StoreCluster;
    use std::collections::HashMap;

    fn handler() -> dcdb_http::server::Handler {
        handler_with(|_| {})
    }

    /// Three nodes' power, 120 s at 1 Hz; `setup` runs after the router is
    /// built.
    fn handler_with(setup: impl FnOnce(&CollectAgent)) -> dcdb_http::server::Handler {
        let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
        for node in 0..3i64 {
            let topic = format!("/r0/n{node}/power");
            let readings: Vec<(i64, f64)> =
                (0..120).map(|i| (i * 1_000_000_000, 100.0 + node as f64)).collect();
            agent.handle_publish(&topic, &encode_readings(&readings));
        }
        let handler = router(Arc::clone(&agent)).into_handler();
        setup(&agent);
        handler
    }

    fn get(h: &dcdb_http::server::Handler, path: &str, query: &[(&str, &str)]) -> (u16, Json) {
        let req = dcdb_http::server::Request {
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
    fn sensors_and_cache_read_one_topic_table() {
        let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
        let h = router(Arc::clone(&agent)).into_handler();
        agent.handle_publish("/x/y", &encode_readings(&[(1, 1.0)]));
        agent.handle_publish("x/y", &encode_readings(&[(3, 3.0)]));
        // an older reading arriving last does not replace the newest
        agent.handle_publish("x/y", &encode_readings(&[(2, 2.0)]));
        assert_eq!(agent.registry().len(), 1);
        let sid = agent.registry().get("/x/y").unwrap();
        assert_eq!(agent.store().query(sid, TimeRange::all()).len(), 3);

        let (code, j) = get(&h, "/sensors", &[]);
        assert_eq!(code, 200);
        assert_eq!(j, Json::Arr(vec![Json::str("/x/y")]));
        for path in ["/cache/x/y", "/cache//x/y/"] {
            let (code, j) = get(&h, path, &[]);
            assert_eq!(code, 200, "{path}");
            assert_eq!(j.get("topic").unwrap().as_str(), Some("/x/y"), "{path}");
            assert_eq!(j.get("ts").unwrap().as_f64(), Some(3.0), "{path}");
            assert_eq!(j.get("value").unwrap().as_f64(), Some(3.0), "{path}");
        }
        assert_eq!(get(&h, "/cache/x/z", &[]).0, 404);
    }

    #[test]
    fn aggregate_single_sensor_windows() {
        let h = handler();
        let (code, j) =
            get(&h, "/aggregate", &[("topic", "/r0/n1/power"), ("agg", "avg"), ("window", "60s")]);
        assert_eq!(code, 200);
        assert_eq!(j.get("agg").unwrap().as_str(), Some("avg"));
        assert_eq!(j.get("sensors").unwrap().as_f64(), Some(1.0));
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 2, "120 s of data in 60 s windows");
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(101.0));
    }

    #[test]
    fn aggregate_fans_in_over_prefix() {
        let h = handler();
        let (code, j) =
            get(&h, "/aggregate", &[("topic", "/r0"), ("agg", "sum"), ("window", "2m")]);
        assert_eq!(code, 200);
        assert_eq!(j.get("sensors").unwrap().as_f64(), Some(3.0));
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 1);
        // 120 readings × (100 + 101 + 102)
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(120.0 * 303.0));
    }

    #[test]
    fn aggregate_groups_per_node() {
        let h = handler();
        let (code, j) = get(
            &h,
            "/aggregate",
            &[("topic", "/r0"), ("agg", "avg"), ("window", "2m"), ("groupby", "2")],
        );
        assert_eq!(code, 200);
        assert_eq!(j.get("sensors").unwrap().as_f64(), Some(3.0));
        let groups = j.get("groups").unwrap().as_arr().unwrap();
        assert_eq!(groups.len(), 3);
        for (n, g) in groups.iter().enumerate() {
            assert_eq!(g.get("group").unwrap().as_str(), Some(format!("/r0/n{n}").as_str()));
            assert_eq!(g.get("sensors").unwrap().as_f64(), Some(1.0));
            let dp = g.get("datapoints").unwrap().as_arr().unwrap();
            assert_eq!(dp.len(), 1);
            assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(100.0 + n as f64));
        }
        // bad level is a client error
        let q = [("topic", "/r0"), ("agg", "avg"), ("window", "1s"), ("groupby", "x")];
        assert_eq!(get(&h, "/aggregate", &q).0, 400);
    }

    #[test]
    fn stats_reports_cache_counters() {
        use dcdb_store::NodeConfig;
        let cfg = NodeConfig { block_cache_readings: 1 << 20, ..Default::default() };
        let cluster = StoreCluster::new(cfg, dcdb_sid::PartitionMap::prefix(1, 3), 1);
        let agent = CollectAgent::new(Arc::new(cluster));
        let readings: Vec<(i64, f64)> = (0..2048).map(|i| (i * 1_000_000_000, 1.0)).collect();
        agent.handle_publish("/r0/n0/power", &encode_readings(&readings));
        agent.store().maintain();
        let h = router(Arc::clone(&agent)).into_handler();
        // two identical aggregates: the second is served from the cache
        for _ in 0..2 {
            let q = [("topic", "/r0/n0/power"), ("agg", "avg"), ("window", "60s")];
            assert_eq!(get(&h, "/aggregate", &q).0, 200);
        }
        let (code, j) = get(&h, "/stats", &[]);
        assert_eq!(code, 200);
        assert_eq!(j.get("cacheCapacityReadings").unwrap().as_f64(), Some((1 << 20) as f64));
        let decoded = j.get("blocksDecoded").unwrap().as_f64().unwrap();
        let hits = j.get("cacheHits").unwrap().as_f64().unwrap();
        assert!(decoded >= 1.0, "cold query decoded blocks");
        assert!(hits >= decoded, "warm query hit every block it needed");
        assert_eq!(j.get("blocksCorrupt").unwrap().as_f64(), Some(0.0));
        assert!(j.get("cacheUsedReadings").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn stats_reports_maintenance_counters() {
        use dcdb_store::NodeConfig;
        let cfg =
            NodeConfig { memtable_flush_entries: 64, maintenance_threads: 1, ..Default::default() };
        let cluster = StoreCluster::new(cfg, dcdb_sid::PartitionMap::prefix(1, 3), 1);
        let agent = CollectAgent::new(Arc::new(cluster));
        let readings: Vec<(i64, f64)> = (0..512).map(|i| (i * 1_000_000_000, 1.0)).collect();
        agent.handle_publish("/r0/n0/power", &encode_readings(&readings));
        agent.store().quiesce();
        let h = router(Arc::clone(&agent)).into_handler();
        let (code, j) = get(&h, "/stats", &[]);
        assert_eq!(code, 200);
        assert_eq!(j.get("maintenanceThreads").unwrap().as_f64(), Some(1.0));
        assert!(j.get("flushes").unwrap().as_f64().unwrap() >= 1.0, "background flush ran");
        assert_eq!(j.get("pendingFlushes").unwrap().as_f64(), Some(0.0));
        let age = j.get("lastFlushAgeS").unwrap().as_f64().unwrap();
        assert!((0.0..60.0).contains(&age), "fresh flush should have a small age, got {age}");
        assert!(j.get("writeStalls").unwrap().as_f64().is_some());
        assert!(j.get("compactionsCoalesced").unwrap().as_f64().is_some());
    }

    #[test]
    fn stats_without_maintenance_reports_never_flushed() {
        let h = handler(); // synchronous store, nothing flushed
        let (code, j) = get(&h, "/stats", &[]);
        assert_eq!(code, 200);
        assert_eq!(j.get("maintenanceThreads").unwrap().as_f64(), Some(0.0));
        assert_eq!(j.get("lastFlushAgeS").unwrap().as_f64(), Some(-1.0));
    }

    #[test]
    fn metrics_and_stats_share_one_source() {
        let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
        let readings: Vec<(i64, f64)> = (0..100).map(|i| (i * 1_000_000_000, 1.0)).collect();
        agent.handle_publish("/r0/n0/power", &encode_readings(&readings));
        let h = router(Arc::clone(&agent)).into_handler();
        let q = [("topic", "/r0/n0/power"), ("agg", "avg"), ("window", "60s")];
        assert_eq!(get(&h, "/aggregate", &q).0, 200);

        let req = dcdb_http::server::Request {
            method: Method::Get,
            path: "/metrics".to_string(),
            query: HashMap::new(),
            params: HashMap::new(),
            headers: HashMap::new(),
            body: Vec::new(),
        };
        let resp = h(&req);
        assert_eq!(resp.status.code(), 200);
        // the Prometheus exposition format version, negotiated by scrapers
        assert_eq!(resp.content_type, "text/plain; version=0.0.4");
        let text = String::from_utf8(resp.body).unwrap();
        // core families across every layer
        for family in [
            "# TYPE dcdb_inserts_total counter",
            "# TYPE dcdb_agent_messages_total counter",
            "# TYPE dcdb_ingest_handle_ns summary",
            "# TYPE dcdb_query_stage_ns summary",
            "# TYPE dcdb_insert_latency_ns summary",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(text.contains("dcdb_agent_messages_total 1"), "{text}");

        // /stats reports the same values the exposition carries
        let (code, j) = get(&h, "/stats", &[]);
        assert_eq!(code, 200);
        assert_eq!(j.get("messages").unwrap().as_f64(), Some(1.0));
        assert_eq!(j.get("queryRequests").unwrap().as_f64(), Some(1.0));
        assert!(j.get("ingestHandleNsP99").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn alert_endpoints_surface_engine_and_journal() {
        use dcdb_core::alerts::{AlertCondition, AlertEngine, AlertRule};
        let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
        let engine = Arc::new(AlertEngine::with_rules(vec![AlertRule::new(
            "hot",
            "/r0/n0/power",
            AlertCondition::Above(100.0),
        )]));
        agent.sensor_db().set_alert_engine(Arc::clone(&engine));
        let h = router(Arc::clone(&agent)).into_handler();

        agent.handle_publish("/r0/n0/power", &encode_readings(&[(1_000, 250.0)]));
        let (code, j) = get(&h, "/alerts", &[]);
        assert_eq!(code, 200);
        let alerts = j.get("alerts").unwrap().as_arr().unwrap();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].get("rule").unwrap().as_str(), Some("hot"));
        assert_eq!(alerts[0].get("state").unwrap().as_str(), Some("firing"));

        // the transition was journaled and pages by sequence number
        let (code, j) = get(&h, "/events", &[]);
        assert_eq!(code, 200);
        let events = j.get("events").unwrap().as_arr().unwrap();
        assert!(
            events.iter().any(|e| e.get("kind").unwrap().as_str() == Some("alert_transition")),
            "journal should carry the alert transition"
        );
        let last = j.get("lastSeq").unwrap().as_f64().unwrap();
        let (_, after) = get(&h, "/events", &[("since", &format!("{last}"))]);
        assert!(after.get("events").unwrap().as_arr().unwrap().is_empty());

        // /stats folds in the engine posture and journal totals
        let (code, j) = get(&h, "/stats", &[]);
        assert_eq!(code, 200);
        let block = j.get("alerts").unwrap();
        assert_eq!(block.get("rules").unwrap().as_f64(), Some(1.0));
        assert_eq!(block.get("active").unwrap().as_f64(), Some(1.0));
        assert!(block.get("notifications").unwrap().as_f64().unwrap() >= 1.0);
        assert!(j.get("eventsTotal").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(j.get("eventsDropped").unwrap().as_f64(), Some(0.0));
        for p90 in ["ingestHandleNsP90", "insertLatencyNsP90", "flushNsP90"] {
            assert!(j.get(p90).unwrap().as_f64().is_some(), "missing {p90}");
        }

        // ALERTS{} rides the shared Prometheus exposition
        let req = dcdb_http::server::Request {
            method: Method::Get,
            path: "/metrics".to_string(),
            query: HashMap::new(),
            params: HashMap::new(),
            headers: HashMap::new(),
            body: Vec::new(),
        };
        let text = String::from_utf8(h(&req).body).unwrap();
        assert!(text.contains(r#"ALERTS{alertname="hot",state="firing""#), "{text}");
    }

    #[test]
    fn slow_query_endpoint_captures_offenders() {
        let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
        let readings: Vec<(i64, f64)> = (0..100).map(|i| (i * 1_000_000_000, 1.0)).collect();
        agent.handle_publish("/r0/n0/power", &encode_readings(&readings));
        agent.sensor_db().slow_queries().set_threshold_ns(1);
        let h = router(Arc::clone(&agent)).into_handler();
        let q = [("topic", "/r0/n0/power"), ("agg", "avg"), ("window", "60s")];
        assert_eq!(get(&h, "/aggregate", &q).0, 200);
        let (code, j) = get(&h, "/debug/slow_queries", &[]);
        assert_eq!(code, 200);
        assert_eq!(j.get("thresholdNs").unwrap().as_f64(), Some(1.0));
        let queries = j.get("queries").unwrap().as_arr().unwrap();
        assert!(!queries.is_empty(), "1 ns threshold catches every query");
        let entry = queries.last().unwrap();
        assert!(entry.get("totalNs").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(entry.get("trace").unwrap().get("stage").unwrap().as_str(), Some("execute"));
    }

    #[test]
    fn aggregate_applies_metadata_set_on_the_agent_handle() {
        use dcdb_core::{SensorMeta, Unit};
        let h = handler_with(|agent| {
            let meta = SensorMeta { scale: 0.001, ..SensorMeta::with_unit(Unit::WATT) };
            agent.sensor_db().set_meta("/r0/n1/power", meta);
        });
        let q = [("topic", "/r0/n1/power"), ("agg", "avg"), ("window", "60s")];
        let (code, j) = get(&h, "/aggregate", &q);
        assert_eq!(code, 200);
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        let avg = dp[0].idx(0).unwrap().as_f64().unwrap();
        assert!((avg - 0.101).abs() < 1e-12, "101 scaled by 0.001, got {avg}");
    }

    #[test]
    fn aggregate_answers_virtual_sensors_of_the_agent_handle() {
        let h = handler_with(|agent| {
            let db = agent.sensor_db();
            db.define_virtual("/v/double", "\"/r0/n1/power\" * 2", dcdb_core::Unit::NONE).unwrap();
        });
        let q = [("topic", "/v/double"), ("agg", "avg"), ("window", "60s")];
        let (code, j) = get(&h, "/aggregate", &q);
        assert_eq!(code, 200);
        let dp = j.get("datapoints").unwrap().as_arr().unwrap();
        assert_eq!(dp.len(), 2, "120 s of data in 60 s windows");
        assert_eq!(dp[0].idx(0).unwrap().as_f64(), Some(202.0));
    }

    #[test]
    fn aggregate_rejects_bad_requests() {
        let h = handler();
        assert_eq!(get(&h, "/aggregate", &[]).0, 400);
        assert_eq!(
            get(&h, "/aggregate", &[("topic", "/r0"), ("agg", "nope"), ("window", "1s")]).0,
            400
        );
        assert_eq!(get(&h, "/aggregate", &[("topic", "/r0"), ("agg", "avg")]).0, 400);
        assert_eq!(
            get(&h, "/aggregate", &[("topic", "/r0"), ("agg", "avg"), ("window", "eternity")]).0,
            400
        );
        let (_, j) = get(&h, "/aggregate", &[("topic", "/nope"), ("agg", "avg"), ("window", "1s")]);
        assert!(j.get("datapoints").unwrap().as_arr().unwrap().is_empty());
    }
}
