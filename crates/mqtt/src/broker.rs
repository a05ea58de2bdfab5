//! An MQTT 3.1.1 TCP broker, publish-only.
//!
//! The DCDB Collect Agent embeds a *custom MQTT implementation that only
//! provides a subset of features necessary for its tasks*: it supports the
//! publish interface but not the subscribe interface, because the Storage
//! Backend is the only consumer and filtering every message through a topic
//! trie would be wasted work (paper §4.2).  This broker reproduces that
//! design: every received PUBLISH is handed to a [`PublishSink`] callback,
//! and every SUBSCRIBE filter is refused (SUBACK `0x80`).
//!
//! Connections run on [`dcdb_http::serve()`]: one thread per connection,
//! blocked in `read` on its [`PacketReader`] while idle and stopped by a
//! socket shutdown, so an idle broker wakes no thread.  Only that thread
//! writes to its socket.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use dcdb_http::{serve, Server};

use crate::codec::{encode_packet, ConnectReturnCode, Packet, PacketReader, QoS};

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
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig { bind: "127.0.0.1:0".parse().expect("static addr") }
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
    /// Protocol errors observed.
    pub errors: AtomicU64,
    /// Socket reads that returned data, over all connections.
    pub reads: AtomicU64,
}

struct Shared {
    sink: Option<PublishSink>,
    stats: BrokerStats,
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
        let shared = Arc::new(Shared { sink, stats: BrokerStats::default() });
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

fn send(mut writer: &TcpStream, packet: &Packet) -> io::Result<()> {
    let mut out = BytesMut::new();
    encode_packet(packet, &mut out)?;
    writer.write_all(&out)
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
    let mut src = CountedReads { stream: &stream, reads: &shared.stats.reads };
    let mut packets = PacketReader::default();
    let mut connected = false;
    while let Some(packet) = packets.next(&mut src)? {
        if !handle_packet(packet, shared, &stream, &mut connected)? {
            break;
        }
    }
    Ok(())
}

/// Act on one packet; `false` once the client has disconnected.
fn handle_packet(
    packet: Packet,
    shared: &Shared,
    writer: &TcpStream,
    connected: &mut bool,
) -> io::Result<bool> {
    let reply = match packet {
        Packet::Connect { .. } => {
            *connected = true;
            shared.stats.connects.fetch_add(1, Ordering::Relaxed);
            Packet::Connack { session_present: false, code: ConnectReturnCode::Accepted }
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
            match (qos, pid) {
                (QoS::AtLeastOnce, Some(pid)) => Packet::Puback { pid },
                _ => return Ok(true),
            }
        }
        // publish-only: every filter is refused
        Packet::Subscribe { pid, filters } => {
            Packet::Suback { pid, return_codes: vec![0x80; filters.len()] }
        }
        Packet::Unsubscribe { pid, .. } => Packet::Unsuback { pid },
        Packet::Pingreq => Packet::Pingresp,
        Packet::Disconnect => return Ok(false),
        Packet::Pubrel { pid } => Packet::Pubcomp { pid },
        // Packets a broker does not expect from clients are ignored.
        _ => return Ok(true),
    };
    send(writer, &reply)?;
    Ok(true)
}
