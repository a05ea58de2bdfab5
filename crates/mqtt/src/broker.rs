//! An MQTT 3.1.1 TCP broker.
//!
//! The DCDB Collect Agent embeds a *custom MQTT implementation that only
//! provides a subset of features necessary for its tasks*: it supports the
//! publish interface but not the subscribe interface, because the Storage
//! Backend is the only consumer and filtering every message through a topic
//! trie would be wasted work (paper §4.2).  This broker reproduces that
//! design: every received PUBLISH is handed to a [`PublishSink`] callback,
//! and SUBSCRIBE support can be switched on for the general-purpose case
//! (the paper notes additional subscribers, e.g. on-line analytics, are
//! possible).
//!
//! Connections run on [`dcdb_http::serve()`]: one thread per connection,
//! blocked in `read` on its [`PacketReader`] while idle and stopped by a
//! socket shutdown, so an idle broker wakes no thread.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use dcdb_http::{serve, Server};
use parking_lot::Mutex;

use crate::codec::{encode_packet, ConnectReturnCode, Packet, PacketReader, QoS};
use crate::topic::filter_matches;

/// Callback receiving every PUBLISH accepted by the broker.
///
/// Arguments: topic, payload, QoS.  This is the hook the Collect Agent uses
/// to forward readings to Storage Backends without a subscription round-trip.
pub type PublishSink = Arc<dyn Fn(&str, &Bytes, QoS) + Send + Sync>;

/// Broker settings.
#[derive(Clone)]
pub struct BrokerConfig {
    /// Address to bind (use port 0 for an ephemeral port in tests).
    pub bind: SocketAddr,
    /// Whether SUBSCRIBE/UNSUBSCRIBE are honoured.  Defaults to `false`,
    /// mirroring the publish-only Collect Agent broker.
    pub allow_subscribe: bool,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig { bind: "127.0.0.1:0".parse().expect("static addr"), allow_subscribe: false }
    }
}

/// Counters exposed for the evaluation harness.
#[derive(Debug, Default)]
pub struct BrokerStats {
    /// CONNECTs accepted.
    pub connects: AtomicU64,
    /// PUBLISH packets received.
    pub publishes: AtomicU64,
    /// Total payload bytes received in PUBLISH packets.
    pub publish_bytes: AtomicU64,
    /// Messages forwarded to subscribers.
    pub forwarded: AtomicU64,
    /// Protocol errors observed.
    pub errors: AtomicU64,
    /// Socket reads that returned data, over all connections.
    pub reads: AtomicU64,
}

struct Subscriber {
    filters: Vec<(String, QoS)>,
    writer: Arc<Mutex<TcpStream>>,
}

struct Shared {
    cfg: BrokerConfig,
    sink: Option<PublishSink>,
    stats: BrokerStats,
    subscribers: Mutex<HashMap<u64, Subscriber>>,
    next_conn_id: AtomicU64,
}

/// Handle to a running broker; dropping it stops the broker.
pub struct Broker {
    shared: Arc<Shared>,
    server: Server,
}

impl Broker {
    /// Start a broker with `cfg`, forwarding publishes to `sink`.
    ///
    /// # Errors
    /// Propagates socket bind failures.
    pub fn start(cfg: BrokerConfig, sink: Option<PublishSink>) -> io::Result<Broker> {
        let listener = TcpListener::bind(cfg.bind)?;
        let shared = Arc::new(Shared {
            cfg,
            sink,
            stats: BrokerStats::default(),
            subscribers: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(1),
        });
        let conn_shared = Arc::clone(&shared);
        let server = serve(listener, "mqtt", move |stream| {
            if connection_loop(stream, &conn_shared).is_err() {
                conn_shared.stats.errors.fetch_add(1, Ordering::Relaxed);
            }
        })?;
        Ok(Broker { shared, server })
    }

    /// The address the broker actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Live statistics.
    pub fn stats(&self) -> &BrokerStats {
        &self.shared.stats
    }

    /// Stop accepting and close every connection.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

fn send(writer: &Mutex<TcpStream>, packet: &Packet) -> io::Result<()> {
    let mut out = BytesMut::new();
    encode_packet(packet, &mut out)?;
    // lint: allow(lock-across-slow-op) -- the per-connection writer mutex
    // exists precisely to serialise whole frames onto the socket; writing
    // outside it would interleave packets from concurrent publishers
    let mut w = writer.lock();
    w.write_all(&out)
}

/// A connection's socket, counting the reads that return data.
struct CountedReads<'a> {
    stream: &'a TcpStream,
    reads: &'a AtomicU64,
}

impl Read for CountedReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(n)
    }
}

/// Serve one connection until it ends.  `Err` on a socket error, a packet
/// that does not decode, or a protocol violation.
fn connection_loop(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut src = CountedReads { stream: &stream, reads: &shared.stats.reads };
    let mut packets = PacketReader::default();
    let mut connected = false;
    let result = (|| {
        while let Some(packet) = packets.next(&mut src)? {
            if !handle_packet(packet, shared, conn_id, &writer, &mut connected)? {
                break;
            }
        }
        Ok(())
    })();
    shared.subscribers.lock().remove(&conn_id);
    result
}

/// Act on one packet; `false` once the client has disconnected.
fn handle_packet(
    packet: Packet,
    shared: &Shared,
    conn_id: u64,
    writer: &Arc<Mutex<TcpStream>>,
    connected: &mut bool,
) -> io::Result<bool> {
    match packet {
        Packet::Connect { .. } => {
            *connected = true;
            shared.stats.connects.fetch_add(1, Ordering::Relaxed);
            send(
                writer,
                &Packet::Connack { session_present: false, code: ConnectReturnCode::Accepted },
            )?;
        }
        Packet::Publish { topic, payload, qos, pid, .. } => {
            if !*connected {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "PUBLISH before CONNECT"));
            }
            shared.stats.publishes.fetch_add(1, Ordering::Relaxed);
            shared.stats.publish_bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
            if let Some(sink) = &shared.sink {
                sink(&topic, &payload, qos);
            }
            if qos == QoS::AtLeastOnce {
                if let Some(pid) = pid {
                    send(writer, &Packet::Puback { pid })?;
                }
            }
            if shared.cfg.allow_subscribe {
                forward_to_subscribers(shared, conn_id, &topic, &payload);
            }
        }
        Packet::Subscribe { pid, filters } => {
            if !shared.cfg.allow_subscribe {
                // publish-only broker: reject all filters
                let codes = vec![0x80u8; filters.len()];
                send(writer, &Packet::Suback { pid, return_codes: codes })?;
            } else {
                let codes: Vec<u8> = filters
                    .iter()
                    .map(|(f, q)| if crate::topic::is_valid_filter(f) { *q as u8 } else { 0x80 })
                    .collect();
                let accepted: Vec<(String, QoS)> =
                    filters.into_iter().filter(|(f, _)| crate::topic::is_valid_filter(f)).collect();
                let mut subs = shared.subscribers.lock();
                let entry = subs.entry(conn_id).or_insert_with(|| Subscriber {
                    filters: Vec::new(),
                    writer: Arc::clone(writer),
                });
                entry.filters.extend(accepted);
                drop(subs);
                send(writer, &Packet::Suback { pid, return_codes: codes })?;
            }
        }
        Packet::Unsubscribe { pid, filters } => {
            let mut subs = shared.subscribers.lock();
            if let Some(sub) = subs.get_mut(&conn_id) {
                sub.filters.retain(|(f, _)| !filters.contains(f));
            }
            drop(subs);
            send(writer, &Packet::Unsuback { pid })?;
        }
        Packet::Pingreq => {
            send(writer, &Packet::Pingresp)?;
        }
        Packet::Disconnect => return Ok(false),
        Packet::Pubrel { pid } => {
            send(writer, &Packet::Pubcomp { pid })?;
        }
        // Packets a broker does not expect from clients are ignored.
        _ => {}
    }
    Ok(true)
}

fn forward_to_subscribers(shared: &Shared, from_conn: u64, topic: &str, payload: &Bytes) {
    // snapshot the matching writers under the registry lock, then write
    // after releasing it — one slow subscriber socket must not stall
    // connects/subscribes (and every other publisher) behind the registry
    let targets: Vec<Arc<Mutex<TcpStream>>> = {
        let subs = shared.subscribers.lock();
        subs.iter()
            .filter(|(id, sub)| {
                **id != from_conn && sub.filters.iter().any(|(f, _)| filter_matches(f, topic))
            })
            .map(|(_, sub)| Arc::clone(&sub.writer))
            .collect()
    };
    if targets.is_empty() {
        return;
    }
    let pkt = Packet::Publish {
        topic: topic.to_string(),
        payload: payload.clone(),
        qos: QoS::AtMostOnce,
        retain: false,
        dup: false,
        pid: None,
    };
    for writer in targets {
        if send(&writer, &pkt).is_ok() {
            shared.stats.forwarded.fetch_add(1, Ordering::Relaxed);
        }
    }
}
