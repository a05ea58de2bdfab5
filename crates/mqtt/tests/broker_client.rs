//! End-to-end tests: real TCP broker + client.

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use dcdb_mqtt::{
    encode_packet, Broker, BrokerConfig, Client, ClientConfig, ConnectReturnCode, Packet,
    PacketReader, QoS,
};

fn start_broker() -> (Broker, Arc<AtomicUsize>) {
    let received = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&received);
    let sink: dcdb_mqtt::PublishSink = Arc::new(move |_: &str, _: &Bytes, _| {
        r2.fetch_add(1, Ordering::Relaxed);
    });
    let broker = Broker::start(BrokerConfig::default(), Some(sink)).expect("broker start");
    (broker, received)
}

#[test]
fn qos0_publish_reaches_sink() {
    let (broker, received) = start_broker();
    let client =
        Client::connect(ClientConfig::new(broker.local_addr(), "test-0")).expect("connect");
    for i in 0..50 {
        client.publish_qos0(&format!("/t/{i}"), b"payload").unwrap();
    }
    // QoS0 is fire-and-forget; wait for broker to drain.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while received.load(Ordering::Relaxed) < 50 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(received.load(Ordering::Relaxed), 50);
    assert_eq!(broker.stats().publishes.load(Ordering::Relaxed), 50);
    client.disconnect();
}

#[test]
fn qos1_publish_is_acked() {
    let (broker, received) = start_broker();
    let client =
        Client::connect(ClientConfig::new(broker.local_addr(), "test-1")).expect("connect");
    for i in 0..20 {
        client.publish_qos1(&format!("/q1/{i}"), &i.to_string().into_bytes()).unwrap();
    }
    // QoS1 waits for PUBACK, so the sink must have seen every message already.
    assert_eq!(received.load(Ordering::Relaxed), 20);
    client.disconnect();
}

#[test]
fn concurrent_qos1_publishers_share_one_client() {
    // every publisher must get its own PUBACK: with acks handed out in
    // arrival order, thread A swallowed the pid thread B waited for and B
    // timed out
    let (broker, received) = start_broker();
    let mut cfg = ClientConfig::new(broker.local_addr(), "shared-q1");
    cfg.ack_timeout = Duration::from_secs(2);
    let client = Client::connect(cfg).expect("connect");
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let client = Arc::clone(&client);
            std::thread::spawn(move || {
                (0..50)
                    .filter(|i| client.publish_qos1(&format!("/q1/{t}/{i}"), b"x").is_err())
                    .count()
            })
        })
        .collect();
    let timeouts: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(timeouts, 0, "QoS-1 publishes that lost their PUBACK to another thread");
    assert_eq!(received.load(Ordering::Relaxed), 200);
    client.disconnect();
}

#[test]
fn many_concurrent_publishers() {
    let (broker, received) = start_broker();
    let addr = broker.local_addr();
    let mut handles = Vec::new();
    for p in 0..8 {
        handles.push(std::thread::spawn(move || {
            let client =
                Client::connect(ClientConfig::new(addr, format!("pusher-{p}"))).expect("connect");
            for i in 0..100 {
                client.publish_qos0(&format!("/host{p}/s{i}"), b"1234567890123456").unwrap();
            }
            client.disconnect();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while received.load(Ordering::Relaxed) < 800 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(received.load(Ordering::Relaxed), 800);
    assert_eq!(broker.stats().publish_bytes.load(Ordering::Relaxed), 800 * 16);
}

#[test]
fn publish_only_broker_rejects_subscriptions() {
    let (broker, received) = start_broker();
    let mut stream = TcpStream::connect(broker.local_addr()).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut packets = PacketReader::default();
    let mut exchange = |packet: Packet| {
        let mut out = BytesMut::new();
        encode_packet(&packet, &mut out).unwrap();
        stream.write_all(&out).unwrap();
        packets.next(&mut stream).unwrap().expect("a reply")
    };
    let connect = Packet::Connect {
        client_id: "raw".into(),
        keep_alive: 60,
        clean_session: true,
        will: None,
        username: None,
        password: None,
    };
    assert_eq!(
        exchange(connect),
        Packet::Connack { session_present: false, code: ConnectReturnCode::Accepted }
    );
    let filters = vec![("/a/#".to_string(), QoS::AtMostOnce), ("/b/+".into(), QoS::AtLeastOnce)];
    assert_eq!(
        exchange(Packet::Subscribe { pid: 7, filters }),
        Packet::Suback { pid: 7, return_codes: vec![0x80, 0x80] }
    );
    assert_eq!(
        exchange(Packet::Unsubscribe { pid: 8, filters: vec!["/a/#".into()] }),
        Packet::Unsuback { pid: 8 }
    );
    // the refused subscription leaves the connection publishing
    let publish = Packet::Publish {
        topic: "/a/x".into(),
        payload: Bytes::from_static(b"data"),
        qos: QoS::AtLeastOnce,
        retain: false,
        dup: false,
        pid: Some(9),
    };
    assert_eq!(exchange(publish), Packet::Puback { pid: 9 });
    assert_eq!(received.load(Ordering::Relaxed), 1, "the sink ran before the PUBACK");
    assert_eq!(broker.stats().publishes.load(Ordering::Relaxed), 1);
}

#[test]
fn ping_keeps_connection() {
    let (broker, _r) = start_broker();
    let client =
        Client::connect(ClientConfig::new(broker.local_addr(), "pinger")).expect("connect");
    for _ in 0..3 {
        client.ping().unwrap();
        std::thread::sleep(Duration::from_millis(30));
    }
    client.publish_qos1("/after/ping", b"ok").unwrap();
}
