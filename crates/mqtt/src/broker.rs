//! An MQTT 3.1.1 TCP broker, publish-only.
//!
//! The DCDB Collect Agent embeds a *custom MQTT implementation that only
//! provides a subset of features necessary for its tasks*: it supports the
//! publish interface but not the subscribe interface, because the Storage
//! Backend is the only consumer and filtering every message through a topic
//! trie would be wasted work (paper §4.2).  This broker reproduces that
//! design: the PUBLISHes of every socket read are handed to a
//! [`PublishSink`] as one batch, and every SUBSCRIBE filter is refused
//! (SUBACK `0x80`).
//!
//! Connections run on [`dcdb_http::serve()`]: one thread per connection,
//! blocked in `read` on its [`PacketReader`] while idle and stopped by a
//! socket shutdown, so an idle broker wakes no thread.  Only that thread
//! writes to its socket.  Each read's frames are parsed in place
//! ([`parse_frame`]): its PUBLISHes become [`PublishRef`]s borrowing the read
//! buffer and go to the sink in one [`Sink::publish_batch`] call.  A QoS-1
//! PUBLISH, and any other packet, first delivers the batch pending before
//! it, so every PUBACK leaves after its PUBLISH was handled, in order.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use dcdb_http::{serve, Server};

use crate::codec::{
    encode_packet, parse_frame, ConnectReturnCode, Frame, Packet, PacketReader, PublishRef, QoS,
};

/// Receives the PUBLISHes the broker accepts, one batch per socket read.
///
/// This is the hook the Collect Agent uses to forward readings to Storage
/// Backends without a subscription round-trip; the agent implements it on
/// its own type.  Any `Fn(topic, payload, QoS)` closure is a sink too,
/// called once per message with the payload copied into [`Bytes`].
pub trait Sink: Send + Sync {
    /// Handle `batch`, in order.  The broker acknowledges a QoS-1 publish
    /// only after the call that carried it has returned.
    fn publish_batch(&self, batch: &[PublishRef<'_>]);
}

impl<F: Fn(&str, &Bytes, QoS) + Send + Sync> Sink for F {
    fn publish_batch(&self, batch: &[PublishRef<'_>]) {
        for publish in batch {
            self(publish.topic, &Bytes::copy_from_slice(publish.payload), publish.qos);
        }
    }
}

/// The sink a [`Broker`] hands its batches to.
pub type PublishSink = Arc<dyn Sink>;

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
    let mut conn = Connection { shared, writer: &stream, connected: false };
    while packets.fill(&mut src)? {
        let mut batch = Vec::new();
        let served = conn.serve(packets.buffered(), &mut batch);
        // what was accepted before a bad frame is handled, as it would be
        // packet by packet
        conn.deliver(&mut batch);
        let (used, open) = served?;
        packets.consume(used);
        if !open {
            break;
        }
    }
    Ok(())
}

/// One connection's session state.
struct Connection<'a> {
    shared: &'a Shared,
    writer: &'a TcpStream,
    connected: bool,
}

impl Connection<'_> {
    /// Handle the whole frames at the front of `buf`, collecting PUBLISHes
    /// into `batch`: `(bytes handled, false once the client disconnected)`.
    fn serve<'b>(
        &mut self,
        buf: &'b [u8],
        batch: &mut Vec<PublishRef<'b>>,
    ) -> io::Result<(usize, bool)> {
        let mut used = 0;
        while let Some((frame, len)) = parse_frame(&buf[used..])? {
            used += len;
            match frame {
                Frame::Publish(publish) => {
                    if !self.connected {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "PUBLISH before CONNECT",
                        ));
                    }
                    batch.push(publish);
                    if let (QoS::AtLeastOnce, Some(pid)) = (publish.qos, publish.pid) {
                        self.deliver(batch);
                        send(self.writer, &Packet::Puback { pid })?;
                    }
                }
                Frame::Packet(packet) => {
                    self.deliver(batch);
                    if !self.handle_packet(packet)? {
                        return Ok((used, false));
                    }
                }
            }
        }
        Ok((used, true))
    }

    /// Hand the pending PUBLISHes to the sink, and empty `batch`.
    fn deliver(&self, batch: &mut Vec<PublishRef<'_>>) {
        if batch.is_empty() {
            return;
        }
        let stats = &self.shared.stats;
        let bytes: usize = batch.iter().map(|p| p.payload.len()).sum();
        stats.publishes.fetch_add(batch.len() as u64, Ordering::Relaxed);
        stats.publish_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        if let Some(sink) = &self.shared.sink {
            sink.publish_batch(batch);
        }
        batch.clear();
    }

    /// Act on one packet other than PUBLISH; `false` once the client has
    /// disconnected.
    fn handle_packet(&mut self, packet: Packet) -> io::Result<bool> {
        let reply = match packet {
            Packet::Connect { .. } => {
                self.connected = true;
                self.shared.stats.connects.fetch_add(1, Ordering::Relaxed);
                Packet::Connack { session_present: false, code: ConnectReturnCode::Accepted }
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
        send(self.writer, &reply)?;
        Ok(true)
    }
}
