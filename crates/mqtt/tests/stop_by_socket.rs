//! Threads blocked in `read` are stopped by shutting their socket down:
//! a broker's shutdown ends its connections at once, and a client whose
//! stream stops decoding drops it instead of buffering behind it.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use dcdb_mqtt::codec::{encode_packet, ConnectReturnCode};
use dcdb_mqtt::{Broker, BrokerConfig, Client, ClientConfig, Packet, PacketReader};

fn write_packet(s: &mut TcpStream, packet: &Packet) {
    let mut out = BytesMut::new();
    encode_packet(packet, &mut out).unwrap();
    s.write_all(&out).unwrap();
}

/// Accept one connection, read its CONNECT and accept it.
fn accept_mqtt(listener: &TcpListener) -> (TcpStream, PacketReader) {
    let (mut s, _) = listener.accept().unwrap();
    let mut packets = PacketReader::default();
    assert!(matches!(packets.next(&mut s).unwrap(), Some(Packet::Connect { .. })));
    let connack = Packet::Connack { session_present: false, code: ConnectReturnCode::Accepted };
    write_packet(&mut s, &connack);
    (s, packets)
}

#[test]
fn client_drops_a_stream_that_announces_an_oversized_packet() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (eof_tx, eof_rx) = mpsc::channel();
    let fake_broker = std::thread::spawn(move || {
        let (mut s, _) = accept_mqtt(&listener);
        // a remaining length of ~256 MiB, over MAX_PACKET_SIZE, then more
        // bytes behind it
        s.write_all(&[0x30, 0xFF, 0xFF, 0xFF, 0x7F]).unwrap();
        s.write_all(&[0u8; 1024]).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        eof_tx.send(s.read(&mut [0u8; 64]).map_err(|e| e.kind())).unwrap();
        // the next publish comes over a new connection
        let (mut s, mut packets) = accept_mqtt(&listener);
        match packets.next(&mut s).unwrap() {
            Some(Packet::Publish { topic, .. }) => topic,
            other => panic!("expected a PUBLISH, got {other:?}"),
        }
    });
    let client = Client::connect(ClientConfig::new(addr, "victim")).unwrap();
    let read = eof_rx.recv().unwrap();
    assert_eq!(read, Ok(0), "the client must close the stream within 1 s");
    client.publish_qos0("/after", b"x").unwrap();
    assert_eq!(fake_broker.join().unwrap(), "/after");
}

#[test]
fn broker_shutdown_closes_a_connected_client_at_once() {
    let mut broker = Broker::start(BrokerConfig::default(), None).unwrap();
    let mut s = TcpStream::connect(broker.local_addr()).unwrap();
    let connect = Packet::Connect {
        client_id: "idle".into(),
        keep_alive: 60,
        clean_session: true,
        will: None,
        username: None,
        password: None,
    };
    write_packet(&mut s, &connect);
    let mut packets = PacketReader::default();
    assert!(matches!(packets.next(&mut s).unwrap(), Some(Packet::Connack { .. })));
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let start = Instant::now();
    broker.shutdown();
    assert!(packets.next(&mut s).unwrap().is_none(), "EOF");
    let waited = start.elapsed();
    assert!(waited < Duration::from_millis(100), "EOF after {waited:?}");
}
