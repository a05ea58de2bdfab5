//! The Pusher's MQTT output stage.
//!
//! Readings are published per sensor topic.  Two send policies reproduce the
//! paper's study (§6.2.1): *continuous* publishes each reading as sampled;
//! *burst* accumulates readings and flushes them at a fixed cadence (the
//! paper found AMG performed best with bursts twice per minute because the
//! reduced duty cycle interferes less with its small-message MPI traffic).
//!
//! The output backend is pluggable: a real TCP MQTT client, or a plain
//! callback (simulation and tests: in process, straight into a Collect
//! Agent's `handle_publish`).  A TCP backend stages each
//! message's PUBLISH frame and writes the stage before
//! [`crate::Pusher::sample_due`] or [`MqttOut::flush`] returns: one socket
//! write per sampling round or burst (per 64 KiB of frames), not one per
//! message.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use dcdb_mqtt::client::{Client, FrameBatch};
use dcdb_mqtt::payload::{
    encode_payload_into, encode_readings, encode_readings_compressed, PayloadEncoding, RECORD_SIZE,
};
use parking_lot::Mutex;

/// When to ship accumulated readings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendPolicy {
    /// Publish every reading as its own message as it is sampled.
    Continuous,
    /// Accumulate and flush every `interval_ns` (e.g. 30 s for the paper's
    /// twice-per-minute bursts).
    Burst {
        /// Nanoseconds between flushes.
        interval_ns: i64,
    },
}

/// Payload compression for pusher → collect-agent publishes.
///
/// Compression is negotiated per topic by construction: each publish
/// carries one topic's batch, and batches of at least `min_batch` readings
/// are sent as `dcdb-compress` Gorilla payloads (self-describing via the
/// payload magic, so the Collect Agent detects the encoding per topic).
/// Smaller batches — e.g. continuous single readings — stay fixed-width,
/// where the compressed framing overhead would not pay off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Always publish fixed-width payloads.
    Off,
    /// Compress batches of at least `min_batch` readings.
    Batches {
        /// Minimum readings in a batch before compression is applied.
        min_batch: usize,
    },
}

impl Compression {
    /// Compress every batch of ≥ 2 readings (the usual burst setting).
    pub fn bursts() -> Compression {
        Compression::Batches { min_batch: 2 }
    }
}

/// Raw publish callback: `(topic, payload)`.
pub type RawPublishCallback = Arc<dyn Fn(&str, &Bytes) + Send + Sync>;

/// Where publishes go.
pub enum MqttBackend {
    /// A real MQTT connection.
    Tcp(Arc<Client>),
    /// A raw callback `(topic, payload)`: in-process delivery for the
    /// simulation harness and tests.
    Callback(RawPublishCallback),
    /// Discard (pure overhead experiments).
    Null,
}

/// Output-stage statistics.
#[derive(Debug, Default)]
pub struct OutStats {
    /// MQTT messages published.
    pub messages: AtomicU64,
    /// Readings shipped (≥ messages under bursting).
    pub readings: AtomicU64,
    /// Flush rounds executed.
    pub flushes: AtomicU64,
    /// Messages published with the compressed payload encoding.
    pub compressed_messages: AtomicU64,
    /// Payload bytes actually published.
    pub payload_bytes: AtomicU64,
    /// Payload bytes the same readings would cost fixed-width.
    pub fixed_width_bytes: AtomicU64,
}

/// The buffering publisher.
pub struct MqttOut {
    backend: MqttBackend,
    policy: SendPolicy,
    compression: Compression,
    queue: Mutex<HashMap<String, Vec<(i64, f64)>>>,
    next_flush_ns: Mutex<i64>,
    /// Frames for a `Tcp` backend, not yet written, and the buffer each
    /// one's payload is encoded in first.
    stage: Mutex<(FrameBatch, Vec<u8>)>,
    stats: OutStats,
}

impl MqttOut {
    /// Create an output stage publishing fixed-width payloads.
    pub fn new(backend: MqttBackend, policy: SendPolicy) -> MqttOut {
        MqttOut::with_compression(backend, policy, Compression::Off)
    }

    /// Create an output stage with a payload [`Compression`] setting.
    pub fn with_compression(
        backend: MqttBackend,
        policy: SendPolicy,
        compression: Compression,
    ) -> MqttOut {
        MqttOut {
            backend,
            policy,
            compression,
            queue: Mutex::new(HashMap::new()),
            next_flush_ns: Mutex::new(0),
            stage: Mutex::default(),
            stats: OutStats::default(),
        }
    }

    /// Queue a reading and flush according to policy.
    pub fn push(&self, topic: &str, ts: i64, value: f64) {
        match self.policy {
            SendPolicy::Continuous => {
                self.publish(topic, &[(ts, value)]);
            }
            SendPolicy::Burst { interval_ns } => {
                {
                    let mut q = self.queue.lock();
                    match q.get_mut(topic) {
                        Some(readings) => readings.push((ts, value)),
                        None => {
                            q.insert(topic.to_string(), vec![(ts, value)]);
                        }
                    }
                }
                let mut next = self.next_flush_ns.lock();
                if *next == 0 {
                    *next = ts + interval_ns;
                } else if ts >= *next {
                    *next = ts + interval_ns;
                    drop(next);
                    self.drain_queue();
                }
            }
        }
    }

    /// Publish all queued readings and write every staged frame (also
    /// called on shutdown).
    pub fn flush(&self) {
        self.drain_queue();
        self.send_staged();
    }

    fn drain_queue(&self) {
        let drained: Vec<(String, Vec<(i64, f64)>)> = {
            let mut q = self.queue.lock();
            q.drain().collect()
        };
        if drained.is_empty() {
            return;
        }
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        for (topic, readings) in drained {
            self.publish(&topic, &readings);
        }
    }

    /// Write the frames a `Tcp` backend staged since the last call, in
    /// order, one socket write per 64 KiB.  A no-op for other backends.
    pub(crate) fn send_staged(&self) {
        // typed, so `dcdb-lint`'s lock-order graph sees stage → connection
        let client: &Client = match &self.backend {
            MqttBackend::Tcp(client) => client,
            _ => return,
        };
        // lint: allow(lock-across-slow-op) -- the stage is this output's own
        // buffer; holding it keeps concurrent pushes behind the frames
        // already staged, so the connection sees them in push order
        let mut stage = self.stage.lock();
        let _ = client.send_batch(&mut stage.0);
    }

    fn publish(&self, topic: &str, readings: &[(i64, f64)]) {
        let encoding = match self.compression {
            Compression::Batches { min_batch } if readings.len() >= min_batch => {
                self.stats.compressed_messages.fetch_add(1, Ordering::Relaxed);
                PayloadEncoding::Compressed
            }
            _ => PayloadEncoding::Fixed,
        };
        let payload_len = match &self.backend {
            MqttBackend::Tcp(_) => {
                let mut stage = self.stage.lock();
                let (frames, payload) = &mut *stage;
                payload.clear();
                encode_payload_into(readings, encoding, payload);
                // only a payload past MQTT's 256 MB packet limit fails here
                let _ = frames.push_qos0(topic, payload);
                payload.len()
            }
            backend => {
                let payload = match encoding {
                    PayloadEncoding::Compressed => encode_readings_compressed(readings),
                    PayloadEncoding::Fixed => encode_readings(readings),
                };
                if let MqttBackend::Callback(cb) = backend {
                    cb(topic, &payload);
                }
                payload.len()
            }
        };
        self.stats.payload_bytes.fetch_add(payload_len as u64, Ordering::Relaxed);
        self.stats
            .fixed_width_bytes
            .fetch_add((readings.len() * RECORD_SIZE) as u64, Ordering::Relaxed);
        self.stats.messages.fetch_add(1, Ordering::Relaxed);
        self.stats.readings.fetch_add(readings.len() as u64, Ordering::Relaxed);
    }

    /// Output statistics.
    pub fn stats(&self) -> &OutStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_mqtt::payload::decode_readings;
    use parking_lot::Mutex as PMutex;

    type CaptureLog = Arc<PMutex<Vec<(String, Vec<(i64, f64)>)>>>;

    fn capture() -> (MqttBackend, CaptureLog) {
        let log = Arc::new(PMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let backend = MqttBackend::Callback(Arc::new(move |topic: &str, payload: &Bytes| {
            l2.lock().push((topic.to_string(), decode_readings(payload).unwrap()));
        }));
        (backend, log)
    }

    #[test]
    fn continuous_publishes_immediately() {
        let (backend, log) = capture();
        let out = MqttOut::new(backend, SendPolicy::Continuous);
        out.push("/a", 1, 1.0);
        out.push("/a", 2, 2.0);
        assert_eq!(log.lock().len(), 2);
        assert_eq!(out.stats().messages.load(Ordering::Relaxed), 2);
        assert_eq!(out.stats().readings.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn burst_accumulates_until_interval() {
        let (backend, log) = capture();
        let out = MqttOut::new(backend, SendPolicy::Burst { interval_ns: 100 });
        out.push("/a", 0, 1.0); // sets next flush to 100
        out.push("/a", 50, 2.0);
        out.push("/b", 60, 3.0);
        assert!(log.lock().is_empty(), "nothing flushed before interval");
        out.push("/a", 120, 4.0); // crosses flush boundary
        let entries = log.lock();
        let total: usize = entries.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, 4);
        // one message per topic, batching multiple readings
        let a = entries.iter().find(|(t, _)| t == "/a").unwrap();
        assert_eq!(a.1.len(), 3);
    }

    #[test]
    fn explicit_flush_drains() {
        let (backend, log) = capture();
        let out = MqttOut::new(backend, SendPolicy::Burst { interval_ns: 1_000_000 });
        out.push("/x", 1, 1.0);
        assert!(log.lock().is_empty());
        out.flush();
        assert_eq!(log.lock().len(), 1);
        out.flush(); // no-op on empty queue
        assert_eq!(out.stats().flushes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn null_backend_counts_only() {
        let out = MqttOut::new(MqttBackend::Null, SendPolicy::Continuous);
        out.push("/x", 1, 1.0);
        assert_eq!(out.stats().messages.load(Ordering::Relaxed), 1);
    }

    fn capture_any() -> (MqttBackend, CaptureLog) {
        let log = Arc::new(PMutex::new(Vec::new()));
        let l2 = Arc::clone(&log);
        let backend = MqttBackend::Callback(Arc::new(move |topic: &str, payload: &Bytes| {
            let (_, readings) = dcdb_mqtt::payload::decode_payload(payload).unwrap();
            l2.lock().push((topic.to_string(), readings));
        }));
        (backend, log)
    }

    #[test]
    fn compressed_bursts_shrink_payloads() {
        let (backend, log) = capture_any();
        let out = MqttOut::with_compression(
            backend,
            SendPolicy::Burst { interval_ns: 60_000_000_000 },
            Compression::bursts(),
        );
        for i in 0..120i64 {
            out.push("/rack0/node0/power", i * 250_000_000, 240.0 + (i % 3) as f64);
        }
        out.flush();
        let entries = log.lock();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.len(), 120);
        assert_eq!(entries[0].1[7], (7 * 250_000_000, 241.0));
        assert_eq!(out.stats().compressed_messages.load(Ordering::Relaxed), 1);
        let sent = out.stats().payload_bytes.load(Ordering::Relaxed);
        let fixed = out.stats().fixed_width_bytes.load(Ordering::Relaxed);
        assert!(sent * 4 < fixed, "expected ≥ 4× payload shrink, sent {sent} vs fixed {fixed}");
    }

    #[test]
    fn small_batches_stay_fixed_width() {
        let (backend, log) = capture_any();
        let out = MqttOut::with_compression(backend, SendPolicy::Continuous, Compression::bursts());
        out.push("/a", 1, 1.0);
        out.push("/a", 2, 2.0);
        assert_eq!(log.lock().len(), 2);
        assert_eq!(out.stats().compressed_messages.load(Ordering::Relaxed), 0);
        assert_eq!(
            out.stats().payload_bytes.load(Ordering::Relaxed),
            out.stats().fixed_width_bytes.load(Ordering::Relaxed)
        );
    }
}
