//! Property tests: the codec round-trips arbitrary packets and never panics
//! on arbitrary input bytes, and the broker's in-place parser
//! ([`parse_frame`]) gives [`decode_packet`]'s verdict on every PUBLISH,
//! whole, truncated or bit-flipped.

use bytes::{Bytes, BytesMut};
use dcdb_mqtt::codec::{decode_packet, encode_packet, parse_frame, Frame, Packet, QoS};
use proptest::prelude::*;
use proptest::TestCaseError;

fn qos_strategy() -> impl Strategy<Value = QoS> {
    prop_oneof![Just(QoS::AtMostOnce), Just(QoS::AtLeastOnce), Just(QoS::ExactlyOnce)]
}

fn topic_strategy() -> impl Strategy<Value = String> {
    "[a-z0-9/_]{1,60}"
}

fn publish_strategy() -> impl Strategy<Value = Packet> {
    (
        topic_strategy(),
        prop::collection::vec(any::<u8>(), 0..512),
        qos_strategy(),
        any::<bool>(),
        any::<bool>(),
        1u16..u16::MAX,
    )
        .prop_map(|(topic, payload, qos, retain, dup, pid)| Packet::Publish {
            topic,
            payload: Bytes::from(payload),
            qos,
            retain,
            dup,
            pid: if qos == QoS::AtMostOnce { None } else { Some(pid) },
        })
}

fn packet_strategy() -> impl Strategy<Value = Packet> {
    prop_oneof![
        publish_strategy(),
        any::<u16>().prop_map(|pid| Packet::Puback { pid }),
        any::<u16>().prop_map(|pid| Packet::Pubrec { pid }),
        any::<u16>().prop_map(|pid| Packet::Pubrel { pid }),
        any::<u16>().prop_map(|pid| Packet::Pubcomp { pid }),
        any::<u16>().prop_map(|pid| Packet::Unsuback { pid }),
        Just(Packet::Pingreq),
        Just(Packet::Pingresp),
        Just(Packet::Disconnect),
        (any::<u16>(), prop::collection::vec((topic_strategy(), qos_strategy()), 1..5))
            .prop_map(|(pid, filters)| Packet::Subscribe { pid, filters }),
        (any::<u16>(), prop::collection::vec(topic_strategy(), 1..5))
            .prop_map(|(pid, filters)| Packet::Unsubscribe { pid, filters }),
    ]
}

proptest! {
    #[test]
    fn roundtrip(pkt in packet_strategy()) {
        let mut buf = BytesMut::new();
        encode_packet(&pkt, &mut buf).unwrap();
        let decoded = decode_packet(&mut buf).unwrap().unwrap();
        prop_assert_eq!(decoded, pkt);
        prop_assert!(buf.is_empty());
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut buf = BytesMut::from(&data[..]);
        // Decode until error or exhaustion; must never panic.
        while let Ok(Some(_)) = decode_packet(&mut buf) {}
    }

    #[test]
    fn split_stream_reassembles(pkts in prop::collection::vec(publish_strategy(), 1..8),
                                cut in any::<prop::sample::Index>()) {
        let mut full = BytesMut::new();
        for p in &pkts {
            encode_packet(p, &mut full).unwrap();
        }
        let cut_at = cut.index(full.len().max(1));
        let (a, b) = full.split_at(cut_at);
        let mut buf = BytesMut::from(a);
        let mut decoded = Vec::new();
        while let Ok(Some(p)) = decode_packet(&mut buf) {
            decoded.push(p);
        }
        buf.extend_from_slice(b);
        while let Ok(Some(p)) = decode_packet(&mut buf) {
            decoded.push(p);
        }
        prop_assert_eq!(decoded, pkts);
    }

    #[test]
    fn filter_matching_consistent_with_manual(topic in "[a-z]{1,5}(/[a-z]{1,5}){0,4}") {
        // '#' matches everything
        prop_assert!(dcdb_mqtt::filter_matches("#", &topic));
        // exact filter matches itself
        prop_assert!(dcdb_mqtt::filter_matches(&topic, &topic));
        // one-level-deeper filter never matches
        let deeper = format!("{topic}/zzz");
        prop_assert!(!dcdb_mqtt::filter_matches(&deeper, &topic));
    }
}

/// `parse_frame` against `decode_packet` on the same bytes: the same verdict
/// (complete, incomplete or the same error), the same topic, payload and
/// packet identifier, and the same number of bytes consumed.
fn parsers_agree(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut buf = BytesMut::from(bytes);
    let decoded = decode_packet(&mut buf);
    let consumed = bytes.len() - buf.len();
    match (parse_frame(bytes), decoded) {
        (Ok(None), Ok(None)) => {}
        (Err(parsed), Err(decoded)) => prop_assert_eq!(parsed, decoded),
        (
            Ok(Some((Frame::Publish(p), len))),
            Ok(Some(Packet::Publish { topic, payload, qos, pid, .. })),
        ) => {
            prop_assert_eq!(p.topic, topic.as_str());
            prop_assert_eq!(p.payload, &payload[..]);
            prop_assert_eq!(p.qos, qos);
            prop_assert_eq!(p.pid, pid);
            prop_assert_eq!(len, consumed);
        }
        (Ok(Some((Frame::Packet(packet), len))), Ok(Some(decoded))) => {
            prop_assert_eq!(packet, decoded);
            prop_assert_eq!(len, consumed);
        }
        (parsed, decoded) => {
            prop_assert!(false, "parse_frame {parsed:?} but decode_packet {decoded:?}")
        }
    }
    Ok(())
}

/// One PUBLISH frame as the client encodes it.
fn publish_frame(topic: &str, payload: &[u8], qos1: bool, pid: u16) -> Vec<u8> {
    let (qos, pid) = if qos1 { (QoS::AtLeastOnce, Some(pid)) } else { (QoS::AtMostOnce, None) };
    let packet = Packet::Publish {
        topic: topic.into(),
        payload: Bytes::copy_from_slice(payload),
        qos,
        retain: false,
        dup: false,
        pid,
    };
    let mut buf = BytesMut::new();
    encode_packet(&packet, &mut buf).unwrap();
    buf.to_vec()
}

/// The parsers agree on `frame` whole and followed by more bytes, on its
/// truncations at `cuts`, and with bit `bit % 8` flipped at each of `flips`
/// (all eight bits in the fixed header).
fn frame_agrees(
    frame: &[u8],
    cuts: impl Iterator<Item = usize>,
    flips: impl Iterator<Item = usize>,
    bit: u8,
) -> Result<(), TestCaseError> {
    parsers_agree(frame)?;
    parsers_agree(&[frame, frame].concat())?;
    for cut in cuts {
        parsers_agree(&frame[..cut])?;
    }
    let mut flipped = frame.to_vec();
    for at in flips {
        let bits = if at < 5 { 0..8 } else { bit % 8..bit % 8 + 1 };
        for b in bits {
            flipped[at] ^= 1 << b;
            parsers_agree(&flipped)?;
            flipped[at] ^= 1 << b;
        }
    }
    Ok(())
}

/// Payloads whose frames take a remaining length of one byte (< 128) or
/// two (the 100..140 band crosses 127), the empty payload included.
fn payload_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 1..64),
        prop::collection::vec(any::<u8>(), 100..140),
    ]
}

proptest! {
    #[test]
    fn parse_frame_agrees_with_decode_packet(
        topic in "[a-z/_é中😀]{0,24}",
        payload in payload_strategy(),
        qos1 in any::<bool>(),
        pid in any::<u16>(),
        bit in 0u8..8,
    ) {
        let frame = publish_frame(&topic, &payload, qos1, pid);
        frame_agrees(&frame, 0..frame.len(), 0..frame.len(), bit)?;
    }
}

#[test]
fn parse_frame_agrees_with_decode_packet_on_long_remaining_lengths() {
    // three- and four-byte remaining lengths: every offset of the headers
    // and topic, and a stride through the payload
    for (len, qos1) in [(16_384, true), (20_000, false), (2_097_152, true)] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
        let frame = publish_frame("/hpc/rack0/node0/µ-sensor", &payload, qos1, 4_242);
        let sampled =
            || (0..64).chain((64..frame.len()).step_by(frame.len() / 16)).chain([frame.len() - 1]);
        frame_agrees(&frame, sampled(), sampled(), 3).unwrap();
    }
}
