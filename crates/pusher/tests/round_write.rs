//! A sampling round reaches the broker in one socket write per 64 KiB of
//! frames, carrying the same PUBLISH frames, in the same order, as one
//! `encode_packet` per reading would.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use bytes::{Bytes, BytesMut};
use dcdb_mqtt::broker::{Broker, BrokerConfig, PublishSink};
use dcdb_mqtt::client::MAX_BATCH_WRITE;
use dcdb_mqtt::codec::{encode_packet, Packet, QoS};
use dcdb_mqtt::{Client, ClientConfig};
use dcdb_pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
use dcdb_pusher::plugins::TesterPlugin;
use dcdb_pusher::{Pusher, PusherConfig};

const SENSORS: usize = 1_500;
const PREFIX: &str = "/hpc0042/rack0/node1";

type Log = Arc<Mutex<Vec<(String, Bytes)>>>;

fn pusher(backend: MqttBackend) -> Pusher {
    let cfg = PusherConfig { prefix: PREFIX.into(), ..PusherConfig::default() };
    let pusher = Pusher::new(cfg, MqttOut::new(backend, SendPolicy::Continuous));
    pusher.add_plugin(Box::new(TesterPlugin::new(SENSORS, 100)));
    pusher
}

fn publish_frame(topic: &str, payload: &Bytes) -> BytesMut {
    let mut frame = BytesMut::new();
    let packet = Packet::Publish {
        topic: topic.to_string(),
        payload: payload.clone(),
        qos: QoS::AtMostOnce,
        retain: false,
        dup: false,
        pid: None,
    };
    encode_packet(&packet, &mut frame).expect("a publish encodes");
    frame
}

#[test]
fn one_round_is_one_write_per_64_kib_of_unchanged_frames() {
    let log: Log = Arc::default();
    let sink_log = Arc::clone(&log);
    let sink: PublishSink = Arc::new(move |topic: &str, payload: &Bytes, _| {
        sink_log.lock().expect("sink").push((topic.to_string(), payload.clone()));
    });
    let broker = Broker::start(BrokerConfig::default(), Some(sink)).expect("broker");
    let client =
        Client::connect(ClientConfig::new(broker.local_addr(), "round-write")).expect("connect");
    let live = pusher(MqttBackend::Tcp(Arc::clone(&client)));

    // what the same round publishes message by message
    let expected: Log = Arc::default();
    let record = Arc::clone(&expected);
    let reference = pusher(MqttBackend::Callback(Arc::new(move |topic: &str, payload: &Bytes| {
        record.lock().expect("reference").push((topic.to_string(), payload.clone()));
    })));
    assert_eq!(reference.sample_due(0), SENSORS);
    let expected = std::mem::take(&mut *expected.lock().expect("reference"));
    let frame_bytes: usize = expected.iter().map(|(t, p)| publish_frame(t, p).len()).sum();
    assert!(frame_bytes > MAX_BATCH_WRITE, "the round must need more than one write");

    let writes = client.stats().writes.load(Ordering::Relaxed);
    let reads = broker.stats().reads.load(Ordering::Relaxed);
    assert_eq!(live.sample_due(0), SENSORS);
    let round_writes = client.stats().writes.load(Ordering::Relaxed) - writes;
    assert_eq!(round_writes as usize, frame_bytes.div_ceil(MAX_BATCH_WRITE));
    assert_eq!(client.stats().published.load(Ordering::Relaxed), SENSORS as u64);

    // the marker's PUBACK comes after the sink has seen every frame before it
    client.publish_qos1("/marker", &[]).expect("marker acked");
    let got = std::mem::take(&mut *log.lock().expect("sink"));
    assert_eq!(got.len(), SENSORS + 1);
    assert_eq!(got[SENSORS].0, "/marker");
    for (i, ((topic, payload), (want_topic, want_payload))) in got.iter().zip(&expected).enumerate()
    {
        assert_eq!(topic, want_topic, "message {i}");
        assert_eq!(
            publish_frame(topic, payload)[..],
            publish_frame(want_topic, want_payload)[..],
            "message {i}"
        );
    }
    let round_reads = broker.stats().reads.load(Ordering::Relaxed) - reads;
    assert!(round_reads < SENSORS as u64 / 10, "{round_reads} broker reads for one round");
    client.disconnect();
}
