//! The broker hands the agent each socket read's PUBLISHes as one batch.
//! These tests pin what a client sees over a real socket: whatever way the
//! bytes split into reads, every publish is handled in order, before the
//! PUBACK of a QoS-1 publish that follows it.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use dcdb_collectagent::{CollectAgent, CollectAgentStats};
use dcdb_mqtt::payload::{encode_readings, encode_readings_compressed};
use dcdb_mqtt::{encode_packet, Broker, BrokerConfig, Packet, PacketReader, QoS};
use dcdb_store::reading::TimeRange;
use dcdb_store::StoreCluster;

fn agent_and_broker() -> (Arc<CollectAgent>, Broker) {
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let broker = agent.start_broker(BrokerConfig::default()).expect("broker");
    (agent, broker)
}

fn frame(packet: &Packet) -> Vec<u8> {
    let mut out = BytesMut::new();
    encode_packet(packet, &mut out).unwrap();
    out.to_vec()
}

fn connect() -> Vec<u8> {
    frame(&Packet::Connect {
        client_id: "raw".into(),
        keep_alive: 60,
        clean_session: true,
        will: None,
        username: None,
        password: None,
    })
}

fn publish(topic: &str, payload: &[u8], pid: Option<u16>) -> Vec<u8> {
    frame(&Packet::Publish {
        topic: topic.into(),
        payload: Bytes::copy_from_slice(payload),
        qos: if pid.is_some() { QoS::AtLeastOnce } else { QoS::AtMostOnce },
        retain: false,
        dup: false,
        pid,
    })
}

/// The QoS-1 marker that closes an exchange; its empty payload stores
/// nothing.
fn marker(pid: u16) -> Vec<u8> {
    publish("/marker", &[], Some(pid))
}

/// A raw connection past its CONNACK.
fn session(broker: &Broker) -> (TcpStream, PacketReader) {
    let mut stream = TcpStream::connect(broker.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(&connect()).unwrap();
    let mut packets = PacketReader::default();
    assert!(matches!(packets.next(&mut stream).unwrap(), Some(Packet::Connack { .. })));
    (stream, packets)
}

fn await_puback(stream: &mut TcpStream, packets: &mut PacketReader, pid: u16) {
    assert_eq!(packets.next(stream).unwrap(), Some(Packet::Puback { pid }));
}

fn values(agent: &CollectAgent, topic: &str) -> Vec<f64> {
    let Some(sid) = agent.registry().get(topic) else { return Vec::new() };
    agent.store().query(sid, TimeRange::all()).iter().map(|r| r.value).collect()
}

#[test]
fn a_batch_is_stored_before_the_puback_that_follows_it() {
    let (agent, broker) = agent_and_broker();
    let (mut stream, mut packets) = session(&broker);
    const N: usize = 200;
    let mut bytes: Vec<u8> = (0..N)
        .flat_map(|i| publish(&format!("/batch/s{i}"), &encode_readings(&[(10, i as f64)]), None))
        .collect();
    bytes.extend(marker(1));
    stream.write_all(&bytes).unwrap();
    await_puback(&mut stream, &mut packets, 1);
    for i in 0..N {
        assert_eq!(values(&agent, &format!("/batch/s{i}")), [i as f64], "/batch/s{i}");
    }
    assert_eq!(agent.stats().messages.load(Ordering::Relaxed), N as u64 + 1);
    assert_eq!(agent.stats().readings.load(Ordering::Relaxed), N as u64);
}

#[test]
fn the_later_of_two_same_timestamp_publishes_wins() {
    let (agent, broker) = agent_and_broker();
    let (mut stream, mut packets) = session(&broker);
    let mut bytes = publish("/dup/s", &encode_readings(&[(100, 1.0)]), None);
    bytes.extend(publish("/dup/s", &encode_readings(&[(100, 2.0)]), None));
    bytes.extend(marker(1));
    stream.write_all(&bytes).unwrap();
    await_puback(&mut stream, &mut packets, 1);
    assert_eq!(values(&agent, "/dup/s"), [2.0]);
    assert_eq!(agent.sensor_db().latest("/dup/s").map(|r| r.value), Some(2.0));
}

#[test]
fn a_torn_payload_mid_batch_is_dropped_and_its_neighbours_stored() {
    let (agent, broker) = agent_and_broker();
    let (mut stream, mut packets) = session(&broker);
    let mut bytes = publish("/mid/a", &encode_readings(&[(1, 1.0)]), None);
    bytes.extend(publish("/mid/torn", &[0u8; 7], None));
    bytes.extend(publish("/mid/b", &encode_readings(&[(1, 3.0)]), None));
    bytes.extend(marker(1));
    stream.write_all(&bytes).unwrap();
    await_puback(&mut stream, &mut packets, 1);
    assert_eq!(values(&agent, "/mid/a"), [1.0]);
    assert_eq!(values(&agent, "/mid/b"), [3.0]);
    assert!(agent.registry().get("/mid/torn").is_none(), "a dropped publish registers nothing");
    assert_eq!(agent.stats().dropped.load(Ordering::Relaxed), 1);
    assert_eq!(agent.stats().readings.load(Ordering::Relaxed), 2);
}

#[test]
fn a_publish_before_connect_is_rejected_with_the_rest_of_its_read() {
    let (agent, broker) = agent_and_broker();
    let mut stream = TcpStream::connect(broker.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut bytes = publish("/early/s", &encode_readings(&[(1, 1.0)]), None);
    bytes.extend(connect());
    bytes.extend(publish("/late/s", &encode_readings(&[(2, 2.0)]), Some(1)));
    stream.write_all(&bytes).unwrap();
    // the broker closes the connection: no CONNACK, no PUBACK
    match PacketReader::default().next(&mut stream) {
        Ok(None) => {}
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
        Ok(Some(packet)) => panic!("the broker answered {packet:?}"),
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while broker.stats().errors.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "the protocol error was never counted");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(agent.stats().messages.load(Ordering::Relaxed), 0);
    assert_eq!(agent.registry().len(), 0);
}

#[test]
fn a_frame_split_across_reads_is_reassembled() {
    let (agent, broker) = agent_and_broker();
    let (mut stream, mut packets) = session(&broker);
    // inside the fixed header, inside the topic, inside the payload
    let cuts: [fn(usize) -> usize; 3] = [|_| 1, |_| 4, |len| len - 3];
    for (pid, cut) in (7u16..).zip(cuts) {
        let bytes = publish("/split/s", &encode_readings(&[(pid as i64, 1.0)]), Some(pid));
        let cut = cut(bytes.len());
        stream.write_all(&bytes[..cut]).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(&bytes[cut..]).unwrap();
        await_puback(&mut stream, &mut packets, pid);
    }
    assert_eq!(values(&agent, "/split/s"), [1.0, 1.0, 1.0]);
    assert_eq!(agent.stats().dropped.load(Ordering::Relaxed), 0);
}

/// Publishes of every kind the agent tells apart: fixed-width and
/// compressed payloads, an empty one, a torn one, a bad and a reserved
/// topic, and topics seen twice.
fn mixed_input() -> Vec<(String, Vec<u8>)> {
    let compressed: Vec<(i64, f64)> = (0..40).map(|i| (i * 1_000, 100.0 + i as f64)).collect();
    vec![
        ("/mix/a".into(), encode_readings(&[(1, 1.0), (2, 2.0)]).to_vec()),
        ("/mix/b".into(), encode_readings_compressed(&compressed).to_vec()),
        ("/mix/empty".into(), Vec::new()),
        ("/mix/torn".into(), vec![0u8; 7]),
        ("/mix/bad topic!".into(), encode_readings(&[(1, 1.0)]).to_vec()),
        ("/_dcdb/node0/fake".into(), encode_readings(&[(1, 1.0)]).to_vec()),
        ("/mix/a".into(), encode_readings(&[(3, 3.0)]).to_vec()),
        ("/mix/b".into(), encode_readings(&[(50_000, 9.0)]).to_vec()),
    ]
}

fn counters(s: &CollectAgentStats) -> [u64; 6] {
    [
        &s.messages,
        &s.readings,
        &s.dropped,
        &s.compressed_messages,
        &s.payload_bytes,
        &s.fixed_width_bytes,
    ]
    .map(|c| c.load(Ordering::Relaxed))
}

#[test]
fn batched_counters_equal_the_one_publish_path() {
    let input = mixed_input();
    let one_by_one = CollectAgent::new(Arc::new(StoreCluster::single()));
    for (topic, payload) in &input {
        one_by_one.handle_publish(topic, payload);
    }

    let (batched, broker) = agent_and_broker();
    let (mut stream, mut packets) = session(&broker);
    let mut bytes: Vec<u8> = input.iter().flat_map(|(t, p)| publish(t, p, None)).collect();
    bytes.extend(marker(1));
    stream.write_all(&bytes).unwrap();
    await_puback(&mut stream, &mut packets, 1);

    let mut expected = counters(one_by_one.stats());
    expected[0] += 1; // the marker
    assert_eq!(counters(batched.stats()), expected, "messages, readings, dropped, ...");
    assert_eq!(batched.store().total_entries(), one_by_one.store().total_entries());
    // the same topics under the same SIDs, the same readings under each
    let mut topics = batched.registry().sids_under("/");
    topics.retain(|(topic, _)| topic != "/marker");
    assert_eq!(topics, one_by_one.registry().sids_under("/"));
    for (topic, sid) in topics {
        let stored = |agent: &CollectAgent| agent.store().query(sid, TimeRange::all());
        assert_eq!(stored(&batched), stored(&one_by_one), "{topic}");
    }
}
