//! Failure injection: the broker must survive hostile and broken clients,
//! and clients must survive broker loss.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use dcdb_mqtt::{Broker, BrokerConfig, Client, ClientConfig};

fn start_broker() -> (Broker, Arc<AtomicUsize>) {
    let received = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&received);
    let broker = Broker::start(
        BrokerConfig::default(),
        Some(Arc::new(move |_: &str, _: &Bytes, _| {
            r2.fetch_add(1, Ordering::Relaxed);
        })),
    )
    .expect("broker");
    (broker, received)
}

#[test]
fn broker_survives_garbage_bytes() {
    let (broker, received) = start_broker();
    // throw raw garbage at the broker
    for chunk in [&[0xFFu8; 64][..], &[0x00; 3], b"GET / HTTP/1.1\r\n\r\n"] {
        let mut s = TcpStream::connect(broker.local_addr()).unwrap();
        s.write_all(chunk).unwrap();
        drop(s);
    }
    std::thread::sleep(Duration::from_millis(100));
    // a well-behaved client still works afterwards
    let client = Client::connect(ClientConfig::new(broker.local_addr(), "after-garbage")).unwrap();
    client.publish_qos1("/ok", b"fine").unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 1);
    assert!(broker.stats().errors.load(Ordering::Relaxed) >= 1);
}

#[test]
fn broker_rejects_publish_before_connect() {
    let (broker, received) = start_broker();
    // a valid PUBLISH packet without a preceding CONNECT
    let mut buf = bytes::BytesMut::new();
    dcdb_mqtt::codec::encode_packet(
        &dcdb_mqtt::codec::Packet::Publish {
            topic: "/sneaky".into(),
            payload: bytes::Bytes::from_static(b"x"),
            qos: dcdb_mqtt::codec::QoS::AtMostOnce,
            retain: false,
            dup: false,
            pid: None,
        },
        &mut buf,
    )
    .unwrap();
    let mut s = TcpStream::connect(broker.local_addr()).unwrap();
    s.write_all(&buf).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(received.load(Ordering::Relaxed), 0, "unauthenticated publish dropped");
}

#[test]
fn half_written_packet_then_disconnect() {
    let (broker, received) = start_broker();
    // CONNECT, then half a PUBLISH frame, then vanish
    let mut connect = bytes::BytesMut::new();
    dcdb_mqtt::codec::encode_packet(
        &dcdb_mqtt::codec::Packet::Connect {
            client_id: "torn".into(),
            keep_alive: 10,
            clean_session: true,
            will: None,
            username: None,
            password: None,
        },
        &mut connect,
    )
    .unwrap();
    let mut publish = bytes::BytesMut::new();
    dcdb_mqtt::codec::encode_packet(
        &dcdb_mqtt::codec::Packet::Publish {
            topic: "/torn/topic".into(),
            payload: bytes::Bytes::from(vec![0u8; 256]),
            qos: dcdb_mqtt::codec::QoS::AtMostOnce,
            retain: false,
            dup: false,
            pid: None,
        },
        &mut publish,
    )
    .unwrap();
    let mut s = TcpStream::connect(broker.local_addr()).unwrap();
    s.write_all(&connect).unwrap();
    s.write_all(&publish[..publish.len() / 2]).unwrap();
    drop(s); // connection dies mid-frame
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(received.load(Ordering::Relaxed), 0, "torn publish must not surface");
    // broker still healthy
    let client = Client::connect(ClientConfig::new(broker.local_addr(), "healthy")).unwrap();
    client.publish_qos1("/fine", b"y").unwrap();
    assert_eq!(received.load(Ordering::Relaxed), 1);
}

#[test]
fn client_fails_cleanly_when_broker_gone() {
    let (mut broker, _received) = start_broker();
    let addr = broker.local_addr();
    let client = Client::connect(ClientConfig {
        ack_timeout: Duration::from_millis(300),
        max_reconnects: 1,
        ..ClientConfig::new(addr, "orphan")
    })
    .unwrap();
    client.publish_qos0("/before", b"ok").unwrap();
    broker.shutdown();
    drop(broker);
    std::thread::sleep(Duration::from_millis(100));
    // eventually the publish path reports an error instead of hanging
    let mut failed = false;
    for _ in 0..20 {
        if client.publish_qos1("/after", b"x").is_err() {
            failed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(failed, "publishing to a dead broker must fail");
}

#[test]
fn oversized_packet_is_rejected() {
    let (broker, received) = start_broker();
    // hand-craft a remaining-length header claiming ~256 MB
    let mut s = TcpStream::connect(broker.local_addr()).unwrap();
    s.write_all(&[0x30, 0xFF, 0xFF, 0xFF, 0x7F]).unwrap();
    s.write_all(&[0u8; 1024]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(received.load(Ordering::Relaxed), 0);
    assert!(broker.stats().errors.load(Ordering::Relaxed) >= 1);
}
