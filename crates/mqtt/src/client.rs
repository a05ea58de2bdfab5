//! A blocking MQTT 3.1.1 client.
//!
//! This is the Pusher side of the transport: QoS 0/1 publishing, keep-alive
//! pings and automatic reconnection, mirroring the role the Mosquitto
//! library plays in the C++ implementation (paper §4.1).  PUBACKs are read
//! by a background reader thread, blocked in `read` on its [`PacketReader`]
//! and stopped by shutting the socket down.

use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::Mutex;

use crate::codec::{
    encode_packet, encode_publish, CodecError, ConnectReturnCode, Packet, PacketReader, QoS,
};

/// Largest socket write [`Client::send_batch`] makes, unless one frame alone
/// is larger: a pusher's sampling round goes out in as few writes as this
/// allows, instead of one per reading.
pub const MAX_BATCH_WRITE: usize = 64 * 1024;

/// Client configuration.
#[derive(Clone)]
pub struct ClientConfig {
    /// Broker address.
    pub broker: SocketAddr,
    /// MQTT client identifier.
    pub client_id: String,
    /// Keep-alive interval (seconds granularity on the wire).
    pub keep_alive: Duration,
    /// How long QoS 1 publishes wait for their PUBACK.
    pub ack_timeout: Duration,
    /// Number of reconnect attempts before a publish fails.
    pub max_reconnects: u32,
}

impl ClientConfig {
    /// Reasonable defaults for `broker`.
    pub fn new(broker: SocketAddr, client_id: impl Into<String>) -> Self {
        ClientConfig {
            broker,
            client_id: client_id.into(),
            keep_alive: Duration::from_secs(60),
            ack_timeout: Duration::from_secs(5),
            max_reconnects: 3,
        }
    }
}

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure after exhausting reconnect attempts.
    Io(std::io::Error),
    /// The broker rejected the connection.
    Rejected,
    /// A QoS 1 publish was not acknowledged within the timeout.
    AckTimeout,
    /// The client has been closed.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Rejected => write!(f, "connection rejected by broker"),
            ClientError::AckTimeout => write!(f, "PUBACK timeout"),
            ClientError::Closed => write!(f, "client closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Counters for the evaluation harness.
#[derive(Debug, Default)]
pub struct ClientStats {
    /// PUBLISH packets sent.
    pub published: AtomicU64,
    /// Payload bytes sent.
    pub published_bytes: AtomicU64,
    /// Reconnections performed.
    pub reconnects: AtomicU64,
    /// Socket `write_all` calls after the handshake: one per write-through
    /// packet, one per ≤ [`MAX_BATCH_WRITE`] bytes of a [`FrameBatch`].
    pub writes: AtomicU64,
}

/// PUBLISH frames encoded back to back, for one
/// [`Client::send_batch`].  The buffer keeps its capacity across batches.
#[derive(Debug, Default)]
pub struct FrameBatch {
    buf: BytesMut,
    /// The socket writes the frames go out in: whole frames, at most
    /// [`MAX_BATCH_WRITE`] bytes unless one frame alone is larger.
    chunks: Vec<Chunk>,
}

#[derive(Debug)]
struct Chunk {
    /// Offset of the write's first byte in `buf`.
    start: usize,
    frames: u64,
    payload_bytes: u64,
}

impl FrameBatch {
    /// Append one QoS 0 PUBLISH frame.
    ///
    /// # Errors
    /// Only for payloads too long for one MQTT packet; the batch is then
    /// unchanged.
    pub fn push_qos0(&mut self, topic: &str, payload: &[u8]) -> Result<(), CodecError> {
        self.push(topic, payload, QoS::AtMostOnce, None)
    }

    fn push(
        &mut self,
        topic: &str,
        payload: &[u8],
        qos: QoS,
        pid: Option<u16>,
    ) -> Result<(), CodecError> {
        let start = self.buf.len();
        encode_publish(&mut self.buf, topic, payload, qos, false, false, pid)?;
        let payload_bytes = payload.len() as u64;
        match self.chunks.last_mut() {
            Some(c) if self.buf.len() - c.start <= MAX_BATCH_WRITE => {
                c.frames += 1;
                c.payload_bytes += payload_bytes;
            }
            _ => self.chunks.push(Chunk { start, frames: 1, payload_bytes }),
        }
        Ok(())
    }

    /// Each socket write's bytes, in order, with its counts.
    fn chunks(&self) -> impl Iterator<Item = (&[u8], &Chunk)> {
        let ends = self.chunks.iter().skip(1).map(|c| c.start).chain([self.buf.len()]);
        self.chunks.iter().zip(ends).map(|(c, end)| (&self.buf[c.start..end], c))
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.chunks.clear();
    }
}

/// Packet ids of the QoS 1 publishes still waiting for their PUBACK.  A
/// set rather than a queue: every [`Client::publish_qos1`] caller waits on
/// its own pid, so none can consume the ack another is waiting for, and an
/// ack nobody waits for (late, foreign) is dropped instead of kept for
/// whoever draws that pid next.
#[derive(Default)]
struct PendingAcks {
    // lint: allow(std-sync-lock) -- Condvar pairing: the vendored
    // parking_lot stub has no Condvar
    pids: std::sync::Mutex<Vec<u16>>,
    acked: std::sync::Condvar,
}

impl PendingAcks {
    /// Start waiting for `pid`'s ack — before the PUBLISH goes out, so the
    /// ack cannot arrive first.
    fn register(&self, pid: u16) {
        self.pids.lock().expect("pending acks").push(pid);
    }

    /// The reader thread saw `pid`'s PUBACK.
    fn deliver(&self, pid: u16) {
        Self::forget(&mut self.pids.lock().expect("pending acks"), pid);
        self.acked.notify_all();
    }

    /// Wait until `pid` has been acked; `false` once `deadline` passes
    /// first, after which a late ack for it is dropped.
    fn wait(&self, pid: u16, deadline: Instant) -> bool {
        let mut pids = self.pids.lock().expect("pending acks");
        while pids.contains(&pid) {
            let now = Instant::now();
            if now >= deadline {
                Self::forget(&mut pids, pid);
                return false;
            }
            pids = self.acked.wait_timeout(pids, deadline - now).expect("pending acks").0;
        }
        true
    }

    fn forget(pids: &mut Vec<u16>, pid: u16) {
        if let Some(i) = pids.iter().position(|&p| p == pid) {
            pids.swap_remove(i);
        }
    }
}

/// The blocking client.
pub struct Client {
    cfg: ClientConfig,
    conn: Mutex<Option<TcpStream>>,
    /// Frame buffer of the write-through publishes, reused.
    frame: Mutex<FrameBatch>,
    next_pid: AtomicU16,
    acks: Arc<PendingAcks>,
    stats: ClientStats,
    closed: AtomicBool,
}

impl Client {
    /// Connect to the broker.
    ///
    /// # Errors
    /// Fails when the TCP connection or the MQTT handshake fails.
    pub fn connect(cfg: ClientConfig) -> Result<Arc<Client>, ClientError> {
        let client = Arc::new(Client {
            cfg,
            conn: Mutex::new(None),
            frame: Mutex::default(),
            next_pid: AtomicU16::new(1),
            acks: Arc::default(),
            stats: ClientStats::default(),
            closed: AtomicBool::new(false),
        });
        client.reconnect_locked(&mut client.conn.lock())?;
        Ok(client)
    }

    /// Client statistics.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// CONNECT and wait for the CONNACK; the reader keeps whatever the
    /// broker sent after it.
    fn handshake(&self, stream: &mut TcpStream) -> Result<PacketReader, ClientError> {
        let mut out = BytesMut::new();
        encode_packet(
            &Packet::Connect {
                client_id: self.cfg.client_id.clone(),
                keep_alive: self.cfg.keep_alive.as_secs().min(u16::MAX as u64) as u16,
                clean_session: true,
                will: None,
                username: None,
                password: None,
            },
            &mut out,
        )
        .expect("CONNECT always encodes");
        stream.write_all(&out)?;
        // a deadline for the CONNACK, lifted before the reader thread blocks
        stream.set_read_timeout(Some(self.cfg.ack_timeout))?;
        let mut packets = PacketReader::default();
        let connack = packets.next(stream);
        stream.set_read_timeout(None)?;
        match connack {
            Ok(Some(Packet::Connack { code: ConnectReturnCode::Accepted, .. })) => Ok(packets),
            Ok(_) => Err(ClientError::Rejected),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(ClientError::AckTimeout)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn reconnect_locked(&self, slot: &mut Option<TcpStream>) -> Result<(), ClientError> {
        if let Some(old) = slot.take() {
            let _ = old.shutdown(Shutdown::Both);
        }
        let mut last_err: Option<ClientError> = None;
        for attempt in 0..=self.cfg.max_reconnects {
            if attempt > 0 {
                self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(20 * attempt as u64));
            }
            match TcpStream::connect(self.cfg.broker) {
                Ok(mut stream) => {
                    stream.set_nodelay(true).ok();
                    match self.handshake(&mut stream) {
                        Ok(packets) => {
                            self.spawn_reader(stream.try_clone()?, packets);
                            *slot = Some(stream);
                            return Ok(());
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                Err(e) => last_err = Some(e.into()),
            }
        }
        Err(last_err.unwrap_or(ClientError::Closed))
    }

    fn spawn_reader(&self, mut stream: TcpStream, mut packets: PacketReader) {
        let acks = Arc::clone(&self.acks);
        std::thread::Builder::new()
            .name("mqtt-client-reader".into())
            .spawn(move || {
                while let Ok(Some(pkt)) = packets.next(&mut stream) {
                    if let Packet::Puback { pid } = pkt {
                        acks.deliver(pid);
                    }
                }
                // end of stream, a socket error, or bytes that do not
                // decode, after which nothing on this stream can be read:
                // shut it down so the next publish reconnects
                let _ = stream.shutdown(Shutdown::Both);
            })
            .expect("spawn reader");
    }

    /// Write `bytes` — whole packets — onto the connection, reconnecting
    /// and retrying once on failure.
    fn send_bytes(&self, bytes: &[u8]) -> Result<(), ClientError> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(ClientError::Closed);
        }
        // lint: allow(lock-across-slow-op) -- the connection mutex serialises
        // whole frames onto the socket and guards reconnect; writing outside
        // it would interleave packets from concurrent senders
        let mut conn = self.conn.lock();
        for _ in 0..2 {
            if conn.is_none() {
                self.reconnect_locked(&mut conn)?;
            }
            let stream = conn.as_mut().expect("just reconnected");
            match stream.write_all(bytes) {
                Ok(()) => {
                    self.stats.writes.fetch_add(1, Ordering::Relaxed);
                    return Ok(());
                }
                Err(_) => {
                    // drop the broken connection and retry once
                    if let Some(old) = conn.take() {
                        let _ = old.shutdown(Shutdown::Both);
                    }
                }
            }
        }
        Err(ClientError::Closed)
    }

    fn send_packet(&self, packet: &Packet) -> Result<(), ClientError> {
        let mut out = BytesMut::new();
        encode_packet(packet, &mut out).map_err(std::io::Error::from)?;
        self.send_bytes(&out)
    }

    /// Write every frame of `batch` in order — one socket write per
    /// ≤ [`MAX_BATCH_WRITE`] bytes — and empty it.  On error the frames not
    /// yet written are dropped, as a failed [`Client::publish_qos0`] drops
    /// its one.  A publish issued after this returns follows every frame of
    /// the batch on the connection.
    ///
    /// # Errors
    /// [`ClientError::Closed`] after [`Client::disconnect`] or when the
    /// connection cannot be re-established.
    pub fn send_batch(&self, batch: &mut FrameBatch) -> Result<(), ClientError> {
        let sent = batch.chunks().try_for_each(|(bytes, chunk)| {
            self.send_bytes(bytes)?;
            self.stats.published.fetch_add(chunk.frames, Ordering::Relaxed);
            self.stats.published_bytes.fetch_add(chunk.payload_bytes, Ordering::Relaxed);
            Ok(())
        });
        batch.clear();
        sent
    }

    /// One write-through publish: a batch of one frame.
    fn publish(
        &self,
        topic: &str,
        payload: &[u8],
        qos: QoS,
        pid: Option<u16>,
    ) -> Result<(), ClientError> {
        // lint: allow(lock-across-slow-op) -- the buffer is reused by every
        // publish; it is held while its one frame is written
        let mut frame = self.frame.lock();
        frame.push(topic, payload, qos, pid).map_err(std::io::Error::from)?;
        self.send_batch(&mut frame)
    }

    /// Publish with QoS 0 (fire and forget), written through.
    pub fn publish_qos0(&self, topic: &str, payload: &[u8]) -> Result<(), ClientError> {
        self.publish(topic, payload, QoS::AtMostOnce, None)
    }

    /// Publish with QoS 1 and wait for the PUBACK.
    pub fn publish_qos1(&self, topic: &str, payload: &[u8]) -> Result<(), ClientError> {
        let pid = self.next_pid.fetch_add(1, Ordering::Relaxed).max(1);
        self.acks.register(pid);
        if let Err(e) = self.publish(topic, payload, QoS::AtLeastOnce, Some(pid)) {
            self.acks.wait(pid, Instant::now()); // nothing went out: stop expecting
            return Err(e);
        }
        if self.acks.wait(pid, Instant::now() + self.cfg.ack_timeout) {
            Ok(())
        } else {
            Err(ClientError::AckTimeout)
        }
    }

    /// Send a keep-alive ping.
    pub fn ping(&self) -> Result<(), ClientError> {
        self.send_packet(&Packet::Pingreq)
    }

    /// Cleanly disconnect.
    pub fn disconnect(&self) {
        let _ = self.send_packet(&Packet::Disconnect);
        self.closed.store(true, Ordering::SeqCst);
        if let Some(stream) = self.conn.lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        if !self.closed.load(Ordering::SeqCst) {
            self.disconnect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::decode_packet;
    use bytes::Bytes;

    #[test]
    fn pending_acks_are_matched_by_pid_not_arrival_order() {
        let acks = PendingAcks::default();
        let soon = || Instant::now() + Duration::from_millis(20);
        for pid in [7, 8, 9] {
            acks.register(pid);
        }
        acks.deliver(7);
        acks.deliver(9);
        assert!(!acks.wait(8, soon()), "nobody acked 8");
        assert!(acks.wait(9, soon()), "9 is acked although 7 arrived first");
        assert!(acks.wait(7, soon()));
        // the ack for 8 arrives after its publisher gave up, then the pid
        // is drawn again: the stale ack must not count for the new publish
        acks.deliver(8);
        acks.register(8);
        assert!(!acks.wait(8, soon()), "a late ack is dropped, not kept");
        assert!(acks.pids.lock().unwrap().is_empty());
    }

    #[test]
    fn frame_batch_holds_encode_packet_frames_cut_at_the_write_limit() {
        let mut batch = FrameBatch::default();
        let mut wire = BytesMut::new();
        let sizes = [1000usize; 200].into_iter().chain([MAX_BATCH_WRITE + 1, 16, 16]);
        for (i, size) in sizes.enumerate() {
            let (topic, payload) = (format!("/t/{i}"), vec![i as u8; size]);
            batch.push_qos0(&topic, &payload).unwrap();
            let packet = Packet::Publish {
                topic,
                payload: Bytes::from(payload),
                qos: QoS::AtMostOnce,
                retain: false,
                dup: false,
                pid: None,
            };
            encode_packet(&packet, &mut wire).unwrap();
        }
        assert_eq!(batch.buf[..], wire[..], "same bytes as one encode_packet per frame");
        let mut frames = Vec::new();
        for (bytes, chunk) in batch.chunks() {
            let mut rest = BytesMut::from(bytes);
            let mut n = 0;
            while let Some(packet) = decode_packet(&mut rest).unwrap() {
                frames.push(packet);
                n += 1;
            }
            assert!(rest.is_empty(), "a write holds whole frames");
            assert_eq!(chunk.frames, n);
            assert!(bytes.len() <= MAX_BATCH_WRITE || n == 1, "{} bytes in {n}", bytes.len());
        }
        assert_eq!(frames.len(), 203);
        // 64 frames of ~1 KiB per write, then the oversized frame alone
        let per_write: Vec<u64> = batch.chunks().map(|(_, c)| c.frames).collect();
        assert_eq!(per_write, [64, 64, 64, 8, 1, 2]);
        batch.clear();
        assert!(batch.buf.is_empty() && batch.chunks().next().is_none());
    }
}
