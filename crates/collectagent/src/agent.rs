//! The Collect Agent core: message handling and storage writing.
//!
//! The embedded broker delivers the PUBLISHes of each socket read as one
//! batch ([`CollectAgent::handle_publishes`]): the batch is decoded, each
//! topic resolved through the handle's [`TopicRegistry`] (a shared-lock
//! lookup; a first-sight topic registers), its readings written with one
//! [`StoreCluster::insert_many`] (one memtable lock per store node), and its
//! counters, clock pair, TTL horizon and alert lock paid once.  A single
//! publish is a batch of one ([`CollectAgent::handle_publish`]).
//!
//! The agent keeps no per-topic state of its own: the registry is the one
//! topic → SID map and the store the one source of a sensor's latest
//! reading (what the REST `/cache` serves).

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use dcdb_core::SensorDb;
use dcdb_mqtt::broker::{Broker, BrokerConfig, PublishSink, Sink};
use dcdb_mqtt::codec::{PublishRef, QoS};
use dcdb_mqtt::payload::{decode_payload_each, PayloadEncoding, RECORD_SIZE};
use dcdb_obs::{Histogram, Kind};
use dcdb_sid::{SensorId, TopicRegistry};
use dcdb_store::reading::Reading;
use dcdb_store::StoreCluster;

/// Collect Agent counters.
///
/// `busy_ns` accumulates the *measured* processing time of the message
/// handler, timed once per delivered batch; the Fig. 8 harness derives
/// per-core CPU load from it the same way the paper derives it from `ps`.
#[derive(Debug, Default)]
pub struct CollectAgentStats {
    /// MQTT messages processed.
    pub messages: AtomicU64,
    /// Readings written to storage.
    pub readings: AtomicU64,
    /// Messages dropped (bad topic or torn payload).
    pub dropped: AtomicU64,
    /// Wall-clock nanoseconds spent inside the handler (summed over
    /// batches).
    pub busy_ns: AtomicU64,
    /// Messages that arrived with the compressed payload encoding.
    pub compressed_messages: AtomicU64,
    /// Payload bytes received (either encoding).
    pub payload_bytes: AtomicU64,
    /// Bytes the same readings would have cost fixed-width — the spread
    /// against `payload_bytes` is the transport saving from compression.
    pub fixed_width_bytes: AtomicU64,
}

/// One publish of a batch that decoded and resolved: what the store, the
/// alert rules and the counters need of it.
struct Accepted<'a> {
    topic: &'a str,
    payload_len: usize,
    encoding: PayloadEncoding,
    sid: SensorId,
    /// Where its readings lie in the batch's decode buffer.
    readings: Range<usize>,
}

// Decode buffer reused by the batches handled on this thread.
thread_local!(static DECODED: Cell<Vec<Reading>> = const { Cell::new(Vec::new()) });

/// The Collect Agent.
pub struct CollectAgent {
    /// The one libDCDB handle: store, registry, metadata, virtual sensors,
    /// query engine and alert engine.
    db: Arc<SensorDb>,
    stats: Arc<CollectAgentStats>,
    /// Handler latency per delivered batch — one socket read's publishes,
    /// or one [`CollectAgent::handle_publish`] — the distribution behind
    /// `busy_ns`.
    handle_ns: Arc<Histogram>,
    /// Shared timing toggle from the cluster registry.
    timing: Arc<AtomicBool>,
}

impl CollectAgent {
    /// Create an agent writing to `store`.
    pub fn new(store: Arc<StoreCluster>) -> Arc<CollectAgent> {
        CollectAgent::with_registry(store, Arc::new(TopicRegistry::new()))
    }

    /// Create an agent sharing an existing topic registry — deployments with
    /// several Collect Agents over one storage cluster share the topic→SID
    /// mapping so SIDs stay bijective site-wide (paper §3.2's "many Collect
    /// Agents, one or more Storage Backends").
    ///
    /// The agent keeps no topic table of its own, so over a store and
    /// registry that already hold data (a reopened database) its REST API
    /// lists and serves every stored sensor before the first publish.
    pub fn with_registry(
        store: Arc<StoreCluster>,
        registry: Arc<TopicRegistry>,
    ) -> Arc<CollectAgent> {
        let stats = Arc::new(CollectAgentStats::default());
        let metrics = store.metrics();
        register_agent_metrics(metrics, &stats);
        let handle_ns = metrics.histogram("dcdb_ingest_handle_ns");
        let timing = metrics.enabled_flag();
        Arc::new(CollectAgent { db: SensorDb::new(store, registry), stats, handle_ns, timing })
    }

    /// Start the periodic alert evaluation loop: every `interval` the
    /// engine installed with [`SensorDb::set_alert_engine`] ticks against
    /// the agent's handle, driving absence/staleness detection and
    /// query-based rules.  Same lifecycle as
    /// [`CollectAgent::start_self_monitor`]: the thread holds a [`Weak`]
    /// agent reference and stops when the returned guard drops.
    pub fn start_alert_ticker(self: &Arc<Self>, interval: Duration) -> SelfMonitor {
        self.spawn_periodic("dcdb-alert-ticker", interval, |agent, now| {
            if let Some(engine) = agent.db.alert_engine() {
                engine.tick(now, Some(&agent.db));
            }
        })
    }

    /// Run `f(agent, wall_clock_ns)` every `interval` on a thread called
    /// `name`.  The thread holds only a [`Weak`] reference: it exits once
    /// the agent is dropped, or when the returned guard is.
    fn spawn_periodic(
        self: &Arc<Self>,
        name: &str,
        interval: Duration,
        f: impl Fn(&Arc<CollectAgent>, i64) + Send + 'static,
    ) -> SelfMonitor {
        // the guard holds the sender: dropping it ends the wait at once
        let (stop, stopped) = mpsc::channel::<()>();
        let weak: Weak<CollectAgent> = Arc::downgrade(self);
        let handle = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let Some(agent) = weak.upgrade() else { return };
                    let now = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_nanos() as i64)
                        .unwrap_or(0);
                    f(&agent, now);
                }
            })
            .expect("spawn periodic agent thread");
        SelfMonitor { stop: Some(stop), handle: Some(handle) }
    }

    /// Handle one publish: a batch of one ([`CollectAgent::handle_publishes`]).
    pub fn handle_publish(&self, topic: &str, payload: &[u8]) {
        self.handle_publishes(&[PublishRef { topic, payload, qos: QoS::AtMostOnce, pid: None }]);
    }

    /// Handle a batch of publishes, in order: payloads → readings, topics →
    /// SIDs, one write to the store, the alert rules.  This is the agent's
    /// one ingest path.  A publish whose payload does not decode, or whose
    /// topic does not resolve, is dropped and counted; it registers nothing.
    pub fn handle_publishes(&self, batch: &[PublishRef<'_>]) {
        let start = Instant::now();
        let mut readings = DECODED.take();
        let registry = self.db.registry();
        let mut accepted = Vec::with_capacity(batch.len());
        for publish in batch {
            let from = readings.len();
            let each = |ts, value| readings.push(Reading::new(ts, value));
            // decode first: a publish that is dropped registers nothing
            let Some(encoding) = decode_payload_each(publish.payload, each) else { continue };
            // a known topic is a shared-lock lookup; a first-sight topic
            // takes the registry's write path
            match registry.resolve(publish.topic) {
                Ok(sid) => accepted.push(Accepted {
                    topic: publish.topic,
                    payload_len: publish.payload.len(),
                    encoding,
                    sid,
                    readings: from..readings.len(),
                }),
                Err(_) => readings.truncate(from),
            }
        }

        let of = |a: &Accepted<'_>| &readings[a.readings.clone()];
        if let Some(newest) = accepted.iter().filter_map(|a| of(a).last()).map(|r| r.ts).max() {
            let entries: Vec<_> = accepted.iter().map(|a| (a.sid, of(a))).collect();
            let store = self.db.store();
            store.insert_many(&entries);
            // advance the store's TTL horizon with the data clock so the
            // maintenance ticker can expire old readings without the
            // agent ever reading a wall clock on the ingest path
            store.advance_now(newest);
        }
        self.db.observe_alerts(accepted.iter().map(|a| (a.topic, of(a))));

        let stats = &self.stats;
        let stored = readings.len() as u64;
        let sum = |f: fn(&Accepted<'_>) -> usize| accepted.iter().map(f).sum::<usize>() as u64;
        stats.messages.fetch_add(batch.len() as u64, Ordering::Relaxed);
        stats.dropped.fetch_add((batch.len() - accepted.len()) as u64, Ordering::Relaxed);
        stats.readings.fetch_add(stored, Ordering::Relaxed);
        stats.fixed_width_bytes.fetch_add(stored * RECORD_SIZE as u64, Ordering::Relaxed);
        stats.payload_bytes.fetch_add(sum(|a| a.payload_len), Ordering::Relaxed);
        let compressed = sum(|a| usize::from(a.encoding == PayloadEncoding::Compressed));
        stats.compressed_messages.fetch_add(compressed, Ordering::Relaxed);
        readings.clear();
        readings.shrink_to(1 << 16); // a pathologically large buffer is not kept
        DECODED.set(readings);
        let elapsed = start.elapsed().as_nanos() as u64;
        stats.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
        // the histogram shares busy_ns's measurement, so it costs no extra
        // clock reads; the observe itself is gated with the other timings
        if self.timing.load(Ordering::Relaxed) {
            self.handle_ns.observe(elapsed);
        }
    }

    /// The topic ↔ SID registry (shared with query tooling).
    pub fn registry(&self) -> &Arc<TopicRegistry> {
        self.db.registry()
    }

    /// The agent's one libDCDB handle, the same `Arc` on every call: the
    /// unified query surface (`SensorDb::execute`) the REST API, the alert
    /// ticker and the self-monitor all use.  Metadata, virtual sensors and
    /// the alert engine set on it are seen by every one of them.
    pub fn sensor_db(&self) -> Arc<SensorDb> {
        Arc::clone(&self.db)
    }

    /// The storage cluster.
    pub fn store(&self) -> &Arc<StoreCluster> {
        self.db.store()
    }

    /// Counters.
    pub fn stats(&self) -> &CollectAgentStats {
        &self.stats
    }

    /// A [`PublishSink`] for wiring into an MQTT broker: the agent itself,
    /// handed each socket read's publishes as one batch.
    pub fn sink(self: &Arc<Self>) -> PublishSink {
        Arc::clone(self) as PublishSink
    }

    /// Start a real TCP MQTT broker feeding this agent.
    ///
    /// # Errors
    /// Propagates socket bind failures.
    pub fn start_broker(self: &Arc<Self>, cfg: BrokerConfig) -> std::io::Result<Broker> {
        Broker::start(cfg, Some(self.sink()))
    }

    /// Start the periodic self-monitoring loop (`--self-metrics-s`): every
    /// `interval` the agent scrapes its own registry and stores the values
    /// as `/_dcdb/<node>/…` sensors ([`SensorDb::publish_self_metrics`]) —
    /// database health becomes history that is queried, plotted and
    /// alerted on exactly like any other sensor.
    ///
    /// The thread holds only a [`Weak`] reference and exits on its own once
    /// the agent is dropped (or when the returned handle is).
    pub fn start_self_monitor(self: &Arc<Self>, node: &str, interval: Duration) -> SelfMonitor {
        let node = node.to_string();
        self.spawn_periodic("dcdb-self-monitor", interval, move |agent, now| {
            agent.db.publish_self_metrics(&node, now);
        })
    }
}

impl Sink for CollectAgent {
    fn publish_batch(&self, batch: &[PublishRef<'_>]) {
        self.handle_publishes(batch);
    }
}

/// Handle on a background agent loop (self-monitoring or alert ticking);
/// stops the thread on drop.
pub struct SelfMonitor {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl SelfMonitor {
    /// Stop the loop and wait for the thread to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop = None;
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SelfMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Join the agent's counters to the cluster registry as scrape-time
/// callbacks over the *same* atomics `stats()` reads, so the REST `/stats`
/// JSON and `/metrics` exposition cannot disagree.  Registration is
/// idempotent; with several agents over one store the first wins (the
/// common deployments pair one agent with one cluster).
fn register_agent_metrics(reg: &dcdb_obs::Registry, stats: &Arc<CollectAgentStats>) {
    let counter = |name: &str, f: fn(&CollectAgentStats) -> &AtomicU64| {
        let s = Arc::clone(stats);
        reg.func(name, Kind::Counter, move || f(&s).load(Ordering::Relaxed));
    };
    counter("dcdb_agent_messages_total", |s| &s.messages);
    counter("dcdb_agent_readings_total", |s| &s.readings);
    counter("dcdb_agent_dropped_total", |s| &s.dropped);
    counter("dcdb_agent_busy_ns_total", |s| &s.busy_ns);
    counter("dcdb_agent_compressed_messages_total", |s| &s.compressed_messages);
    counter("dcdb_agent_payload_bytes_total", |s| &s.payload_bytes);
    counter("dcdb_agent_fixed_width_bytes_total", |s| &s.fixed_width_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_mqtt::payload::encode_readings;
    use dcdb_store::reading::TimeRange;

    fn agent() -> Arc<CollectAgent> {
        CollectAgent::new(Arc::new(StoreCluster::single()))
    }

    #[test]
    fn publish_lands_in_store() {
        let a = agent();
        let payload = encode_readings(&[(1_000, 42.0), (2_000, 43.0)]);
        a.handle_publish("/sys/node0/power", &payload);
        let sid = a.registry().get("/sys/node0/power").unwrap();
        let got = a.store().query(sid, TimeRange::all());
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].value, 43.0);
        assert_eq!(a.stats().readings.load(Ordering::Relaxed), 2);
        assert_eq!(a.stats().messages.load(Ordering::Relaxed), 1);
        assert!(a.stats().busy_ns.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn cache_keeps_latest() {
        let a = agent();
        let db = a.sensor_db();
        a.handle_publish("/s/x", &encode_readings(&[(10, 1.0)]));
        a.handle_publish("/s/x", &encode_readings(&[(20, 2.0)]));
        assert_eq!(db.latest("/s/x").unwrap().value, 2.0);
        // latest is the newest timestamp, not the last publish to arrive
        a.handle_publish("/s/x", &encode_readings(&[(15, 1.5)]));
        assert_eq!(db.latest("/s/x").unwrap().value, 2.0);
        assert_eq!(a.registry().sids_under("/").len(), 1);
        assert!(db.latest("/s/none").is_none());
    }

    #[test]
    fn malformed_input_is_dropped_not_stored() {
        let a = agent();
        a.handle_publish("/good/topic", &[0u8; 7]); // torn payload
        assert_eq!(a.stats().dropped.load(Ordering::Relaxed), 1);
        // a dropped publish leaves no trace of its topic
        assert_eq!(a.registry().len(), 0);
        a.handle_publish("/bad topic!", &encode_readings(&[(1, 1.0)]));
        assert_eq!(a.stats().dropped.load(Ordering::Relaxed), 2);
        assert_eq!(a.stats().readings.load(Ordering::Relaxed), 0);
        assert_eq!(a.store().total_entries(), 0);
    }

    #[test]
    fn in_process_pusher_wiring() {
        use dcdb_pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
        let a = agent();
        let to_agent = Arc::clone(&a);
        let out = MqttOut::new(
            MqttBackend::Callback(Arc::new(move |topic, payload| {
                to_agent.handle_publish(topic, payload)
            })),
            SendPolicy::Continuous,
        );
        out.push("/bus/s1", 5, 9.0);
        assert_eq!(a.stats().readings.load(Ordering::Relaxed), 1);
        let sid = a.registry().get("/bus/s1").unwrap();
        assert_eq!(a.store().query(sid, TimeRange::all()).len(), 1);
    }

    #[test]
    fn sensor_db_is_one_handle() {
        let a = agent();
        assert!(Arc::ptr_eq(&a.sensor_db(), &a.sensor_db()));
        assert!(Arc::ptr_eq(a.sensor_db().store(), a.store()));
        assert!(Arc::ptr_eq(a.sensor_db().registry(), a.registry()));
    }

    #[test]
    fn tcp_broker_end_to_end() {
        let a = agent();
        let broker = a.start_broker(BrokerConfig::default()).unwrap();
        let client = dcdb_mqtt::Client::connect(dcdb_mqtt::ClientConfig::new(
            broker.local_addr(),
            "pusher-e2e",
        ))
        .unwrap();
        let payload = encode_readings(&[(100, 7.5)]);
        client.publish_qos1("/e2e/power", &payload).unwrap();
        let sid = a.registry().get("/e2e/power").unwrap();
        let got = a.store().query(sid, TimeRange::all());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, 7.5);
        client.disconnect();
    }

    #[test]
    fn empty_payload_is_noop_but_counted() {
        let a = agent();
        a.handle_publish("/s/e", &[]);
        assert_eq!(a.stats().messages.load(Ordering::Relaxed), 1);
        assert_eq!(a.stats().dropped.load(Ordering::Relaxed), 0);
        assert_eq!(a.stats().readings.load(Ordering::Relaxed), 0);
        // the topic registers, but has no reading to serve
        assert_eq!(a.registry().len(), 1);
        assert!(a.sensor_db().latest("/s/e").is_none());
    }

    #[test]
    fn racing_first_publishes_share_one_sid() {
        const THREADS: i64 = 4;
        const PER_THREAD: i64 = 100;
        let a = agent();
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (a, start) = (&a, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        let ts = i * THREADS + t;
                        a.handle_publish("/race/s", &encode_readings(&[(ts, ts as f64)]));
                    }
                });
            }
        });
        assert_eq!(a.registry().len(), 1);
        let sid = a.registry().get("/race/s").unwrap();
        let got = a.store().query(sid, TimeRange::all());
        assert_eq!(got.len() as i64, THREADS * PER_THREAD);
        assert_eq!(a.stats().readings.load(Ordering::Relaxed) as i64, THREADS * PER_THREAD);
    }

    #[test]
    fn compressed_publish_lands_in_store() {
        use dcdb_mqtt::payload::encode_readings_compressed;
        let a = agent();
        let readings: Vec<(i64, f64)> =
            (0..60).map(|i| (i * 1_000_000_000, 300.0 + (i % 2) as f64)).collect();
        a.handle_publish("/sys/node1/power", &encode_readings_compressed(&readings));
        let sid = a.registry().get("/sys/node1/power").unwrap();
        let got = a.store().query(sid, TimeRange::all());
        assert_eq!(got.len(), 60);
        assert_eq!(got[13].value, 301.0);
        assert_eq!(a.stats().compressed_messages.load(Ordering::Relaxed), 1);
        let sent = a.stats().payload_bytes.load(Ordering::Relaxed);
        let fixed = a.stats().fixed_width_bytes.load(Ordering::Relaxed);
        assert!(sent < fixed, "compressed payload {sent} should undercut fixed {fixed}");
    }

    #[test]
    fn agent_counters_join_the_cluster_registry() {
        let a = agent();
        a.handle_publish("/s/x", &encode_readings(&[(10, 1.0), (20, 2.0)]));
        a.handle_publish("/bad topic!", &encode_readings(&[(1, 1.0)]));
        let snap = a.store().metrics().snapshot();
        let get = |name: &str| match snap.get(name) {
            Some(dcdb_obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        // callbacks read the same atomics as stats(): always equal
        assert_eq!(get("dcdb_agent_messages_total"), 2);
        assert_eq!(get("dcdb_agent_readings_total"), 2);
        assert_eq!(get("dcdb_agent_dropped_total"), 1);
        assert_eq!(get("dcdb_agent_busy_ns_total"), a.stats().busy_ns.load(Ordering::Relaxed));
        let Some(dcdb_obs::MetricValue::Histogram(h)) = snap.get("dcdb_ingest_handle_ns") else {
            panic!("ingest histogram missing");
        };
        assert_eq!(h.count, 2);
    }

    #[test]
    fn reserved_hierarchy_publishes_are_dropped() {
        let a = agent();
        a.handle_publish("/_dcdb/node0/fake", &encode_readings(&[(1, 1.0)]));
        assert_eq!(a.stats().dropped.load(Ordering::Relaxed), 1);
        assert_eq!(a.store().total_entries(), 0);
        // a reserved topic the self-monitor registered stays closed to users
        let db = a.sensor_db();
        assert!(db.publish_self_metrics("node0", 1_000) > 0);
        let topic = "/_dcdb/node0/dcdb_agent_messages_total";
        assert!(a.registry().get(topic).is_some());
        a.handle_publish(topic, &encode_readings(&[(2_000, 99.0)]));
        assert_eq!(a.stats().dropped.load(Ordering::Relaxed), 2);
        let got: Vec<_> = db.query(topic, TimeRange::all()).unwrap().readings;
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].ts, got[0].value), (1_000, 1.0));
    }

    #[test]
    fn self_monitor_loop_publishes_queryable_history() {
        let a = agent();
        a.handle_publish("/s/x", &encode_readings(&[(10, 1.0)]));
        // one deterministic sweep first
        let written = a.sensor_db().publish_self_metrics("agent0", 1_000);
        assert!(written > 0);
        let db = a.sensor_db();
        let s = db.query("/_dcdb/agent0/dcdb_agent_messages_total", TimeRange::all()).unwrap();
        assert_eq!(s.readings.len(), 1);
        assert_eq!(s.readings[0].value, 1.0);
        // the background loop appends more sweeps on its own clock
        let monitor = a.start_self_monitor("agent0", std::time::Duration::from_millis(5));
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let s = db.query("/_dcdb/agent0/dcdb_agent_messages_total", TimeRange::all()).unwrap();
            if s.readings.len() >= 2 {
                break;
            }
            assert!(Instant::now() < deadline, "self-monitor never published");
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        monitor.stop();
    }

    #[test]
    fn alert_engine_rides_the_ingest_stream() {
        use dcdb_core::alerts::{AlertCondition, AlertEngine, AlertRule, AlertState};
        let a = agent();
        let engine = Arc::new(AlertEngine::new());
        engine.add_rule(AlertRule::new("hot", "/sys/+/power", AlertCondition::Above(300.0)));
        a.sensor_db().set_alert_engine(Arc::clone(&engine));
        // live readings drive the state machine from handle_publish
        a.handle_publish("/sys/node0/power", &encode_readings(&[(1_000, 250.0)]));
        assert_eq!(engine.alerts()[0].state, AlertState::Inactive);
        a.handle_publish("/sys/node0/power", &encode_readings(&[(2_000, 350.0)]));
        assert_eq!(engine.alerts()[0].state, AlertState::Firing);
        // the transition landed in the cluster's event journal
        let journal = a.store().metrics().events();
        assert!(journal
            .since(0)
            .iter()
            .any(|e| e.kind == dcdb_obs::EventKind::AlertTransition && e.subject == "hot"));
        // the one handle serves the installed engine (REST surfaces)
        assert!(a.sensor_db().alert_engine().is_some());
        // the engine's counters joined the registry
        let snap = a.store().metrics().snapshot();
        assert_eq!(
            snap.get("dcdb_alerts_notifications_total"),
            Some(&dcdb_obs::MetricValue::Counter(1))
        );
    }

    #[test]
    fn alert_ticker_drives_absence_detection() {
        use dcdb_core::alerts::{AlertCondition, AlertEngine, AlertRule, AlertState};
        let a = agent();
        let engine = Arc::new(AlertEngine::new());
        // wall-clock staleness: any sensor silent for 1ms fires
        engine.add_rule(AlertRule::new(
            "stale",
            "/sys/#",
            AlertCondition::Absent { timeout_ns: 1_000_000 },
        ));
        a.sensor_db().set_alert_engine(Arc::clone(&engine));
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as i64)
            .unwrap();
        a.handle_publish("/sys/node0/power", &encode_readings(&[(now, 1.0)]));
        let ticker = a.start_alert_ticker(Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if engine.alerts().first().map(|s| s.state) == Some(AlertState::Firing) {
                break;
            }
            assert!(Instant::now() < deadline, "absence alert never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        ticker.stop();
    }

    #[test]
    fn alert_ticker_queries_see_the_agent_metadata() {
        use dcdb_core::alerts::{AlertCondition, AlertEngine, AlertRule, AlertState};
        use dcdb_core::{SensorMeta, Unit};
        let a = agent();
        let meta = SensorMeta { scale: 0.001, ..SensorMeta::with_unit(Unit::WATT) };
        a.sensor_db().set_meta("/sys/node0/power", meta);
        let engine = Arc::new(AlertEngine::new());
        engine.add_rule(
            AlertRule::new("hot", "/sys/node0/power", AlertCondition::Above(0.0))
                .query_eval(dcdb_query::AggFn::Avg, 3_600_000_000_000),
        );
        a.sensor_db().set_alert_engine(Arc::clone(&engine));
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as i64)
            .unwrap();
        a.handle_publish("/sys/node0/power", &encode_readings(&[(now - 1_000_000, 250_000.0)]));
        let ticker = a.start_alert_ticker(Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_secs(5);
        let alert = loop {
            match engine.alerts().first() {
                Some(alert) if alert.state == AlertState::Firing => break alert.clone(),
                _ => {}
            }
            assert!(Instant::now() < deadline, "query alert never fired");
            std::thread::sleep(Duration::from_millis(5));
        };
        ticker.stop();
        // the ticker queried the agent's handle: 250 000 mW read as 250 W
        assert!((alert.value - 250.0).abs() < 1e-9, "{alert:?}");
    }

    #[test]
    fn per_topic_encoding_negotiation_upgrades() {
        use dcdb_mqtt::payload::encode_readings_compressed;
        let a = agent();
        a.handle_publish("/s/mix", &encode_readings(&[(10, 1.0)]));
        a.handle_publish("/s/mix", &encode_readings_compressed(&[(20, 2.0), (30, 3.0)]));
        // and back: each publish is decoded in its own encoding
        a.handle_publish("/s/mix", &encode_readings(&[(40, 4.0)]));
        assert_eq!(a.stats().compressed_messages.load(Ordering::Relaxed), 1);
        assert_eq!(a.sensor_db().latest("/s/mix").map(|r| r.value), Some(4.0));
        let sid = a.registry().get("/s/mix").unwrap();
        assert_eq!(a.store().query(sid, TimeRange::all()).len(), 4);
    }
}
