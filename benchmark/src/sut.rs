//! The system under test.  **Every call into the workspace crates lives in
//! this file**; the rest of the benchmark sees only the types defined here.
//! The pinned surface is listed in the README.
//!
//! [`Stack`] is the composition `dcdbcollectagent` builds — `CollectAgent`,
//! `Broker` on loopback TCP, `rest::router` on `HttpServer` — with the store
//! given one maintenance thread and a 1 Mi-reading block cache and every
//! other setting left at its default.  [`Pushers`] is the front end: real
//! `Pusher`s with the tester plugin, publishing through one shared MQTT
//! client.  With a [`Tracer`] the three boundaries the benchmark composes
//! itself (client publish, broker sink, HTTP handler) are wrapped in spans.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use dcdb_collectagent::{rest, CollectAgent};
use dcdb_core::QueryRequest;
use dcdb_http::server::{Handler, HttpServer, Request};
use dcdb_http::Json;
use dcdb_mqtt::broker::{Broker, BrokerConfig, PublishSink};
use dcdb_mqtt::codec::{decode_packet, encode_packet, Packet, QoS};
use dcdb_mqtt::payload;
use dcdb_mqtt::{Client, ClientConfig};
use dcdb_obs::MetricValue;
use dcdb_pusher::mqtt_out::{Compression, MqttBackend, MqttOut, SendPolicy};
use dcdb_pusher::plugins::TesterPlugin;
use dcdb_pusher::{Pusher, PusherConfig};
use dcdb_query::{AggFn, SeriesIter, WindowedAgg};
use dcdb_sid::{PartitionMap, TopicRegistry};
use dcdb_store::{NodeConfig, Reading, StoreCluster, TimeRange};

use crate::trace::{Batch, Tracer};
use crate::workload::{Inputs, Query, PUSHERS, TICK_NS};

/// Block cache budget: 1 Mi readings = 16 MiB.
pub const CACHE_READINGS: usize = 1 << 20;
/// Background flush/compaction workers.
pub const MAINTENANCE_THREADS: usize = 1;

fn node_config() -> NodeConfig {
    NodeConfig {
        block_cache_readings: CACHE_READINGS,
        maintenance_threads: MAINTENANCE_THREADS,
        ..NodeConfig::default()
    }
}

fn new_store() -> Arc<StoreCluster> {
    // one node, prefix depth 3: what `dcdbcollectagent` builds without flags
    Arc::new(StoreCluster::new(node_config(), PartitionMap::prefix(1, 3), 1))
}

/// What the tracing wrappers need to tag their spans: the tick and the
/// query in flight.  One connection each way and a generator that waits
/// for the tick's PUBACK make both unambiguous.
#[derive(Default)]
pub struct InFlight {
    pub tick: AtomicU64,
    pub query: AtomicU64,
}

/// Monotonic counters of the running stack, read before and after a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub agent_readings: u64,
    pub agent_dropped: u64,
    pub agent_busy_ns: u64,
    pub broker_publishes: u64,
    pub flushes: u64,
    pub compactions: u64,
    pub compaction_ns: u64,
    pub stalls: u64,
    pub stall_ns: u64,
    pub flush_ns: u64,
    pub blocks_decoded: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
}

pub struct Stack {
    agent: Arc<CollectAgent>,
    broker: Broker,
    rest: HttpServer,
    pub in_flight: Arc<InFlight>,
}

impl Stack {
    /// Start agent, broker and REST server on ephemeral loopback ports.
    pub fn start(tracer: Option<Arc<Tracer>>) -> io::Result<Stack> {
        let agent = CollectAgent::new(new_store());
        let in_flight = Arc::new(InFlight::default());
        let (sink, handler) = match tracer {
            None => (agent.sink(), rest::router(Arc::clone(&agent)).into_handler()),
            Some(t) => (
                traced_sink(Arc::clone(&agent), Arc::clone(&t), Arc::clone(&in_flight)),
                traced_handler(
                    rest::router(Arc::clone(&agent)).into_handler(),
                    t,
                    Arc::clone(&in_flight),
                ),
            ),
        };
        let broker = Broker::start(BrokerConfig::default(), Some(sink))?;
        let rest = HttpServer::start(loopback(), handler)?;
        Ok(Stack { agent, broker, rest, in_flight })
    }

    pub fn mqtt_addr(&self) -> SocketAddr {
        self.broker.local_addr()
    }

    pub fn http_addr(&self) -> SocketAddr {
        self.rest.local_addr()
    }

    /// Feed one fixed-width publish straight to the agent (the preload).
    pub fn ingest(&self, topic: &str, readings: &[(i64, f64)]) {
        self.agent.handle_publish(topic, &payload::encode_readings(readings));
    }

    /// Wait until background flush and compaction have nothing left to do.
    pub fn quiesce(&self) {
        self.agent.store().quiesce();
    }

    pub fn counters(&self) -> Counters {
        let s = self.agent.stats();
        let store = self.agent.store();
        let m = store.maintenance_stats();
        let c = store.cache_stats();
        let flush_ns = match store.metrics().snapshot().get("dcdb_flush_ns") {
            Some(MetricValue::Histogram(h)) => h.sum,
            _ => 0,
        };
        Counters {
            agent_readings: s.readings.load(Ordering::Relaxed),
            agent_dropped: s.dropped.load(Ordering::Relaxed),
            agent_busy_ns: s.busy_ns.load(Ordering::Relaxed),
            broker_publishes: self.broker.stats().publishes.load(Ordering::Relaxed),
            flushes: m.flushes,
            compactions: m.compactions,
            compaction_ns: m.compaction_ns,
            stalls: m.stalls,
            stall_ns: m.stall_ns,
            flush_ns,
            blocks_decoded: store.blocks_decoded(),
            cache_hits: c.hits,
            cache_misses: c.misses,
            cache_evictions: c.evictions,
        }
    }

    /// Flush every memtable and merge every node's runs into one, so the
    /// store's size no longer depends on where the run happened to stop.
    pub fn compact_all(&self) {
        self.agent.store().maintain();
    }

    /// Bytes the store holds (memtables and SSTables).
    pub fn store_bytes(&self) -> usize {
        let store = self.agent.store();
        (0..store.node_count()).map(|i| store.node(i).approx_bytes()).sum()
    }

    /// Every stored reading of one topic, oldest first.
    pub fn read_back(&self, topic: &str) -> Vec<(i64, f64)> {
        match self.agent.sensor_db().execute(&QueryRequest::topic(topic)) {
            Ok(resp) => resp.into_single().readings.iter().map(|r| (r.ts, r.value)).collect(),
            Err(_) => Vec::new(),
        }
    }
}

fn loopback() -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 0))
}

/// The broker's sink with a span around `handle_publish`: one batch span per
/// tick, closed by the tick's QoS-1 marker.
fn traced_sink(
    agent: Arc<CollectAgent>,
    tracer: Arc<Tracer>,
    in_flight: Arc<InFlight>,
) -> PublishSink {
    let batch = Mutex::new(Batch::default());
    Arc::new(move |topic: &str, payload: &Bytes, qos| {
        if !tracer.enabled() {
            return agent.handle_publish(topic, payload);
        }
        let start = tracer.now_ns();
        agent.handle_publish(topic, payload);
        let end = tracer.now_ns();
        let mut b = batch.lock().expect("one broker connection feeds this batch");
        b.add(start, end);
        if qos == QoS::AtLeastOnce {
            let tick = in_flight.tick.load(Ordering::SeqCst);
            b.flush(&tracer, "collectagent.handle_publish", tick, "mqtt.client_publish");
        }
    })
}

/// The REST handler with a span around it.
fn traced_handler(inner: Handler, tracer: Arc<Tracer>, in_flight: Arc<InFlight>) -> Handler {
    Arc::new(move |req: &Request| {
        if !tracer.enabled() {
            return inner(req);
        }
        let name = if req.path == "/metrics" { "obs.render_prometheus" } else { "http.handler" };
        let start = tracer.now_ns();
        let resp = inner(req);
        let id = in_flight.query.load(Ordering::SeqCst);
        tracer.record(name, id, "http.round_trip", start, tracer.now_ns());
        resp
    })
}

/// Readings a pusher's output stage has shipped, and in how many bytes.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutTotals {
    pub messages: u64,
    pub readings: u64,
    pub payload_bytes: u64,
}

/// The front end: `PUSHERS` real pushers sharing one MQTT connection.
pub struct Pushers {
    pushers: Vec<Pusher>,
    client: Arc<Client>,
    marker_topic: String,
    /// Per-message publish spans of the tick in progress (traced runs).
    publishes: Arc<Mutex<Batch>>,
    tracer: Option<Arc<Tracer>>,
}

fn make_out(inputs: &Inputs, backend: MqttBackend) -> MqttOut {
    if inputs.spec.burst {
        MqttOut::with_compression(
            backend,
            SendPolicy::Burst { interval_ns: TICK_NS },
            Compression::bursts(),
        )
    } else {
        MqttOut::new(backend, SendPolicy::Continuous)
    }
}

fn make_pusher(inputs: &Inputs, k: usize, backend: MqttBackend) -> Pusher {
    let cfg = PusherConfig { prefix: inputs.pusher_prefix(k), ..PusherConfig::default() };
    let pusher = Pusher::new(cfg, make_out(inputs, backend));
    let interval_ms = (inputs.spec.sample_ns / 1_000_000) as u64;
    pusher.add_plugin(Box::new(TesterPlugin::new(inputs.spec.sensors, interval_ms)));
    pusher
}

impl Pushers {
    pub fn connect(
        addr: SocketAddr,
        inputs: &Inputs,
        tracer: Option<Arc<Tracer>>,
    ) -> io::Result<Pushers> {
        let client = Client::connect(ClientConfig::new(addr, "dcdb-benchmark"))
            .map_err(|e| io::Error::other(e.to_string()))?;
        let publishes = Arc::new(Mutex::new(Batch::default()));
        let pushers = (0..PUSHERS)
            .map(|k| {
                let backend = match &tracer {
                    // the production backend, untouched
                    None => MqttBackend::Tcp(Arc::clone(&client)),
                    Some(t) => {
                        let (c, t, b) =
                            (Arc::clone(&client), Arc::clone(t), Arc::clone(&publishes));
                        MqttBackend::Callback(Arc::new(move |topic: &str, payload: &Bytes| {
                            if !t.enabled() {
                                let _ = c.publish_qos0(topic, payload);
                                return;
                            }
                            let start = t.now_ns();
                            let _ = c.publish_qos0(topic, payload);
                            let end = t.now_ns();
                            b.lock().expect("only the ingest thread publishes").add(start, end);
                        }))
                    }
                };
                make_pusher(inputs, k, backend)
            })
            .collect();
        Ok(Pushers { pushers, client, marker_topic: inputs.marker_topic(), publishes, tracer })
    }

    /// Let pusher `k` sample everything due at `now_ns`; returns readings made.
    pub fn tick(&self, k: usize, now_ns: i64, tick_id: u64) -> usize {
        let Some(t) = self.tracer.as_ref().filter(|t| t.enabled()) else {
            return self.pushers[k].sample_due(now_ns);
        };
        let n =
            t.span("pusher.sample_due", tick_id, "gen.tick", || self.pushers[k].sample_due(now_ns));
        self.publishes.lock().expect("only the ingest thread publishes").flush(
            t,
            "mqtt.client_publish",
            tick_id,
            "pusher.sample_due",
        );
        n
    }

    /// Publish the QoS-1 marker and wait for its PUBACK: the broker acks
    /// only after the agent has handled it, and everything sent before it.
    pub fn marker(&self, tick_id: u64) -> bool {
        let send = || self.client.publish_qos1(&self.marker_topic, &[]).is_ok();
        match self.tracer.as_ref().filter(|t| t.enabled()) {
            Some(t) => t.span("mqtt.marker_round_trip", tick_id, "gen.tick", send),
            None => send(),
        }
    }

    /// Ship what the burst queues still hold.
    pub fn flush_all(&self) {
        for p in &self.pushers {
            p.out().flush();
        }
    }

    pub fn out_totals(&self) -> OutTotals {
        let mut t = OutTotals::default();
        for p in &self.pushers {
            let s = p.out().stats();
            t.messages += s.messages.load(Ordering::Relaxed);
            t.readings += s.readings.load(Ordering::Relaxed);
            t.payload_bytes += s.payload_bytes.load(Ordering::Relaxed);
        }
        t
    }

    /// PUBLISH packets the shared client has written (markers included).
    pub fn client_published(&self) -> u64 {
        self.client.stats().published.load(Ordering::Relaxed)
    }
}

impl Drop for Pushers {
    fn drop(&mut self) {
        self.client.disconnect();
    }
}

// ---------------------------------------------------------------------
// Replay: a recorded slice of the workload's own inputs pushed through each
// layer's public functions, single-threaded, to split the time below the
// three live boundaries.
// ---------------------------------------------------------------------

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_nanos() as u64)
}

/// Messages exactly as the pushers publish them, in order.
pub struct Slice {
    pub msgs: Vec<(String, Bytes)>,
    pub readings: u64,
    pub payload_bytes: u64,
}

/// Run fresh pushers for `rounds` ticks each and keep what they publish.
pub fn record_slice(inputs: &Inputs, rounds: usize) -> Slice {
    let log: Arc<Mutex<Vec<(String, Bytes)>>> = Arc::default();
    for k in 0..PUSHERS {
        let sink = Arc::clone(&log);
        let backend = MqttBackend::Callback(Arc::new(move |topic: &str, payload: &Bytes| {
            sink.lock()
                .expect("recorder does not panic")
                .push((topic.to_string(), payload.clone()));
        }));
        let pusher = make_pusher(inputs, k, backend);
        for m in 0..rounds {
            pusher.sample_due(m as i64 * TICK_NS);
        }
        pusher.out().flush();
    }
    let msgs = std::mem::take(&mut *log.lock().expect("recorder does not panic"));
    let payload_bytes = msgs.iter().map(|(_, p)| p.len() as u64).sum();
    let readings = msgs
        .iter()
        .map(|(_, p)| payload::decode_payload(p).map_or(0, |(_, r)| r.len() as u64))
        .sum();
    Slice { msgs, readings, payload_bytes }
}

/// `Pusher::sample_due` with the `Null` backend: plugin read, scheduler,
/// sensor cache and the output stage up to (not including) the send.
/// Returns `(ns, readings)`.
pub fn replay_pusher_sample(inputs: &Inputs, rounds: usize) -> (u64, u64) {
    let pushers: Vec<Pusher> =
        (0..PUSHERS).map(|k| make_pusher(inputs, k, MqttBackend::Null)).collect();
    let (readings, ns) = timed(|| {
        let mut n = 0;
        for m in 0..rounds {
            for p in &pushers {
                n += p.sample_due(m as i64 * TICK_NS) as u64;
            }
        }
        n
    });
    (ns, readings)
}

/// `MqttOut::push` / `flush` alone, fed the readings the tester plugin
/// makes, into a callback that does nothing.  Returns `(ns, readings)`.
pub fn replay_pusher_out(inputs: &Inputs, rounds: usize) -> (u64, u64) {
    let spec = &inputs.spec;
    let topics: Vec<String> = (0..spec.sensors).map(|i| inputs.tester_topic(0, i)).collect();
    let out = make_out(inputs, MqttBackend::Callback(Arc::new(|_: &str, _: &Bytes| {})));
    let samples = rounds as i64 * TICK_NS / spec.sample_ns;
    let ((), ns) = timed(|| {
        for r in 0..samples {
            let ts = r * spec.sample_ns;
            for (i, topic) in topics.iter().enumerate() {
                out.push(topic, ts, Inputs::tester_value(i, ts));
            }
        }
        out.flush();
    });
    (ns, samples as u64 * spec.sensors as u64)
}

/// Nanoseconds and bytes of the MQTT codec over a slice.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecReplay {
    pub payload_encode_ns: u64,
    pub payload_decode_ns: u64,
    pub packet_encode_ns: u64,
    pub packet_decode_ns: u64,
    pub wire_bytes: u64,
}

pub fn replay_codec(inputs: &Inputs, slice: &Slice) -> CodecReplay {
    let decoded: Vec<Vec<(i64, f64)>> = slice
        .msgs
        .iter()
        .map(|(_, p)| payload::decode_payload(p).map(|(_, r)| r).unwrap_or_default())
        .collect();
    let ((), payload_decode_ns) = timed(|| {
        for (_, p) in &slice.msgs {
            std::hint::black_box(payload::decode_payload(p));
        }
    });
    let compressed = inputs.spec.burst;
    let ((), payload_encode_ns) = timed(|| {
        for r in &decoded {
            std::hint::black_box(if compressed && r.len() >= 2 {
                payload::encode_readings_compressed(r)
            } else {
                payload::encode_readings(r)
            });
        }
    });
    // one buffer per packet, as the client encodes them
    let mut wire: Vec<BytesMut> = Vec::with_capacity(slice.msgs.len());
    let ((), packet_encode_ns) = timed(|| {
        for (topic, p) in &slice.msgs {
            let packet = Packet::Publish {
                topic: topic.to_string(),
                payload: Bytes::copy_from_slice(p),
                qos: QoS::AtMostOnce,
                retain: false,
                dup: false,
                pid: None,
            };
            let mut buf = BytesMut::new();
            encode_packet(&packet, &mut buf).expect("a publish the client sent encodes");
            wire.push(buf);
        }
    });
    let wire_bytes = wire.iter().map(|b| b.len() as u64).sum();
    // the broker decodes out of a buffer it refills in 16 KiB reads
    let stream: Vec<u8> = wire.iter().flat_map(|b| b.iter().copied()).collect();
    let ((), packet_decode_ns) = timed(|| {
        let mut buf = BytesMut::with_capacity(8 * 1024);
        for chunk in stream.chunks(16 * 1024) {
            buf.extend_from_slice(chunk);
            while let Ok(Some(packet)) = decode_packet(&mut buf) {
                std::hint::black_box(packet);
            }
        }
    });
    CodecReplay {
        payload_encode_ns,
        payload_decode_ns,
        packet_encode_ns,
        packet_decode_ns,
        wire_bytes,
    }
}

/// Client to broker over loopback TCP with a sink that does nothing: wall
/// time from the first publish to the PUBACK of a marker sent last.
pub fn replay_transport(slice: &Slice) -> io::Result<u64> {
    let sink: PublishSink = Arc::new(|_: &str, _: &Bytes, _| {});
    let broker = Broker::start(BrokerConfig::default(), Some(sink))?;
    let client = Client::connect(ClientConfig::new(broker.local_addr(), "dcdb-benchmark-replay"))
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (acked, ns) = timed(|| {
        for (topic, p) in &slice.msgs {
            let _ = client.publish_qos0(topic, p);
        }
        client.publish_qos1("/bench/marker", &[]).is_ok()
    });
    client.disconnect();
    if acked {
        Ok(ns)
    } else {
        Err(io::Error::other("replay marker was not acknowledged"))
    }
}

/// Topic resolution: `(ns to resolve every message's known topic,
/// ns to register every distinct topic in an empty registry, distinct topics)`.
pub fn replay_sid(slice: &Slice) -> (u64, u64, u64) {
    let mut distinct: Vec<&str> = slice.msgs.iter().map(|(t, _)| t.as_str()).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let registry = TopicRegistry::new();
    let ((), register_ns) = timed(|| {
        for t in &distinct {
            let _ = std::hint::black_box(registry.resolve(t));
        }
    });
    let ((), resolve_ns) = timed(|| {
        for (t, _) in &slice.msgs {
            let _ = std::hint::black_box(registry.resolve(t));
        }
    });
    (resolve_ns, register_ns, distinct.len() as u64)
}

/// The agent's handler and the store's insert over a slice, each on a store
/// of its own: `(handle_publish ns, insert_batch ns)`.
pub fn replay_agent(slice: &Slice) -> (u64, u64) {
    let agent = CollectAgent::new(new_store());
    let ((), handle_ns) = timed(|| {
        for (topic, p) in &slice.msgs {
            agent.handle_publish(topic, p);
        }
    });
    agent.store().quiesce();
    drop(agent);

    let store = new_store();
    let registry = TopicRegistry::new();
    let prepared: Vec<_> = slice
        .msgs
        .iter()
        .filter_map(|(topic, p)| {
            let sid = registry.resolve(topic).ok()?;
            let (_, decoded) = payload::decode_payload(p)?;
            let readings: Vec<Reading> =
                decoded.iter().map(|&(ts, v)| Reading::new(ts, v)).collect();
            Some((sid, readings))
        })
        .collect();
    let ((), insert_ns) = timed(|| {
        for (sid, readings) in &prepared {
            store.insert_batch(*sid, readings);
        }
    });
    store.quiesce();
    (handle_ns, insert_ns)
}

/// `dcdb-compress` over the series the store would compress:
/// `(encode ns, decode ns, raw bytes, compressed bytes, readings)`.
pub fn replay_compress(series: &[Vec<(i64, f64)>]) -> (u64, u64, u64, u64, u64) {
    let (encoded, encode_ns) =
        timed(|| series.iter().map(|s| dcdb_compress::encode_series(s)).collect::<Vec<_>>());
    let ((), decode_ns) = timed(|| {
        for e in &encoded {
            let _ = std::hint::black_box(dcdb_compress::decode_series(e));
        }
    });
    let readings: u64 = series.iter().map(|s| s.len() as u64).sum();
    let compressed: u64 = encoded.iter().map(|e| e.len() as u64).sum();
    (encode_ns, decode_ns, readings * 16, compressed, readings)
}

/// The REST handler on one query: whole, and rendering its document again.
#[derive(Debug, Default, Clone, Copy)]
pub struct HandlerReplay {
    pub handler_ns: u64,
    pub render_ns: u64,
    pub response_bytes: u64,
}

/// `SensorDb::execute` on one query.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecuteReplay {
    pub execute_ns: u64,
    pub points: u64,
}

/// The store and query layers below `execute` on one query.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReadReplay {
    /// `StoreCluster::series_snapshot` over the request's sensors.
    pub snapshot_ns: u64,
    /// `WindowedAgg::feed_series` straight off `SeriesIter`, as the engine
    /// runs it: block decode or cache lookups, merge, and fold.
    pub stream_ns: u64,
    /// The fold alone, over the same readings already in memory.
    pub fold_ns: u64,
    pub readings: u64,
}

/// What `rest::router` makes of a workload query: target, aggregation,
/// window, grouping, range.  `None` for `/cache` lookups, which stop at the
/// handler.
fn planned(
    inputs: &Inputs,
    q: &Query,
    now_ns: i64,
) -> Option<(String, AggFn, i64, Option<usize>, TimeRange)> {
    use crate::workload::{Agg, DASH_WINDOW_NS, LIVE_WINDOW_NS, SCAN_WINDOW_NS};
    let (start, end) = inputs.range(q, now_ns);
    let range = TimeRange::new(start, end);
    Some(match q {
        Query::Cache { .. } => return None,
        Query::LivePanel { pusher, sensor } => {
            (inputs.tester_topic(*pusher, *sensor), AggFn::Avg, LIVE_WINDOW_NS, None, range)
        }
        Query::Window { sensor, agg } => {
            let agg = match agg {
                Agg::Avg => AggFn::Avg,
                Agg::Max => AggFn::Max,
            };
            (inputs.history_topics()[*sensor].clone(), agg, DASH_WINDOW_NS, None, range)
        }
        Query::Scan { node, .. } => {
            (inputs.pusher_prefix(*node), AggFn::Avg, SCAN_WINDOW_NS, Some(4), range)
        }
    })
}

impl Stack {
    /// One query through a handler built like the served one.
    pub fn replay_handler(&self, inputs: &Inputs, q: &Query, now_ns: i64) -> HandlerReplay {
        let url = inputs.url(q, now_ns);
        let (path, query) = url.split_once('?').unwrap_or((&url, ""));
        let request = Request {
            method: dcdb_http::Method::Get,
            path: path.to_string(),
            query: dcdb_http::server::parse_query(query),
            params: Default::default(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let handler = rest::router(Arc::clone(&self.agent)).into_handler();
        let (resp, handler_ns) = timed(|| handler(&request));
        let render_ns = Json::parse(&String::from_utf8_lossy(&resp.body))
            .map_or(0, |doc| timed(|| doc.to_string_compact()).1);
        HandlerReplay { handler_ns, render_ns, response_bytes: resp.body.len() as u64 }
    }

    /// One query through `SensorDb::execute`, as the handler plans it.
    pub fn replay_execute(&self, inputs: &Inputs, q: &Query, now_ns: i64) -> Option<ExecuteReplay> {
        let (target, agg, window_ns, group_by, range) = planned(inputs, q, now_ns)?;
        let mut request = QueryRequest::new(&target).range(range).aggregate(agg, window_ns);
        if let Some(level) = group_by {
            request = request.group_by(level);
        }
        let db = self.agent.sensor_db();
        let (resp, execute_ns) = timed(|| db.execute(&request));
        Some(ExecuteReplay { execute_ns, points: resp.map_or(0, |r| r.len() as u64) })
    }

    /// One query through the store's and the query crate's public functions.
    pub fn replay_read(&self, inputs: &Inputs, q: &Query, now_ns: i64) -> Option<ReadReplay> {
        let (target, agg, window_ns, _, range) = planned(inputs, q, now_ns)?;
        let registry = self.agent.registry();
        let sids: Vec<_> = match registry.get(&target) {
            Some(sid) => vec![sid],
            None => registry.sids_under(&target).into_iter().map(|(_, sid)| sid).collect(),
        };
        let store = self.agent.store();
        let (snapshots, snapshot_ns) =
            timed(|| sids.iter().map(|sid| store.series_snapshot(*sid, range)).collect::<Vec<_>>());
        let (_, stream_ns) = timed(|| {
            let mut w = WindowedAgg::new(agg, window_ns);
            for snap in snapshots {
                w.feed_series(SeriesIter::new(snap, range));
            }
            w.finish()
        });
        // the same readings once more, decoded outside the clock
        let series: Vec<Vec<Reading>> = sids
            .iter()
            .map(|sid| SeriesIter::new(store.series_snapshot(*sid, range), range).collect())
            .collect();
        let (_, fold_ns) = timed(|| {
            let mut w = WindowedAgg::new(agg, window_ns);
            for s in &series {
                w.feed_series(s.iter().copied());
            }
            w.finish()
        });
        let readings = series.iter().map(|s| s.len() as u64).sum();
        Some(ReadReplay { snapshot_ns, stream_ns, fold_ns, readings })
    }
}
