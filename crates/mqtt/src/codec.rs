//! MQTT 3.1.1 wire format.
//!
//! Implements encoding and decoding for all fourteen control packet types of
//! the OASIS MQTT 3.1.1 specification, including the variable-length
//! "remaining length" encoding and UTF-8 string fields.  Decoding is
//! incremental: [`decode_packet`] and [`parse_frame`] return `Ok(None)` when
//! the buffer does not yet hold a complete packet, so callers can accumulate
//! TCP reads; [`PacketReader`] is that accumulation, the one buffer every
//! socket reader in this crate reads into.  [`parse_frame`] is the broker's
//! decoder: it parses a PUBLISH in place, as a [`PublishRef`] borrowing the
//! read buffer, and hands every other packet to [`decode_packet`].

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::io::{self, Read};

/// Quality-of-service level (3.1.1 supports 0, 1, 2; DCDB uses 0 and 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QoS {
    /// Fire and forget.
    AtMostOnce = 0,
    /// Acknowledged delivery (PUBACK).
    AtLeastOnce = 1,
    /// Assured delivery (PUBREC/PUBREL/PUBCOMP).
    ExactlyOnce = 2,
}

impl QoS {
    /// Parse from the 2-bit wire value.
    pub fn from_bits(b: u8) -> Result<QoS, CodecError> {
        match b {
            0 => Ok(QoS::AtMostOnce),
            1 => Ok(QoS::AtLeastOnce),
            2 => Ok(QoS::ExactlyOnce),
            _ => Err(CodecError::Malformed("QoS 3 is reserved")),
        }
    }
}

/// CONNACK return codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectReturnCode {
    /// Connection accepted.
    Accepted = 0,
    /// The broker does not support the requested protocol level.
    UnacceptableProtocol = 1,
    /// Client identifier rejected.
    IdentifierRejected = 2,
    /// Broker unavailable.
    ServerUnavailable = 3,
    /// Bad user name or password.
    BadCredentials = 4,
    /// Client is not authorised.
    NotAuthorized = 5,
}

impl ConnectReturnCode {
    fn from_u8(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            0 => ConnectReturnCode::Accepted,
            1 => ConnectReturnCode::UnacceptableProtocol,
            2 => ConnectReturnCode::IdentifierRejected,
            3 => ConnectReturnCode::ServerUnavailable,
            4 => ConnectReturnCode::BadCredentials,
            5 => ConnectReturnCode::NotAuthorized,
            _ => return Err(CodecError::Malformed("unknown CONNACK return code")),
        })
    }
}

/// A will message registered at CONNECT time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastWill {
    /// Topic the will is published to.
    pub topic: String,
    /// Will payload.
    pub payload: Bytes,
    /// Will QoS.
    pub qos: QoS,
    /// Will retain flag.
    pub retain: bool,
}

/// A decoded MQTT control packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Packet {
    /// Client → broker session request.
    Connect {
        /// Client identifier (may be empty with clean_session).
        client_id: String,
        /// Keep-alive interval in seconds (0 disables).
        keep_alive: u16,
        /// Discard previous session state.
        clean_session: bool,
        /// Optional will message.
        will: Option<LastWill>,
        /// Optional user name.
        username: Option<String>,
        /// Optional password.
        password: Option<Bytes>,
    },
    /// Broker → client session response.
    Connack {
        /// Broker has stored session state for this client.
        session_present: bool,
        /// Accept/reject code.
        code: ConnectReturnCode,
    },
    /// Application message (either direction).
    Publish {
        /// Destination topic.
        topic: String,
        /// Message body.
        payload: Bytes,
        /// Delivery QoS.
        qos: QoS,
        /// Retain flag.
        retain: bool,
        /// Duplicate delivery flag.
        dup: bool,
        /// Packet identifier, present when qos > 0.
        pid: Option<u16>,
    },
    /// QoS 1 acknowledgement.
    Puback {
        /// Acknowledged packet identifier.
        pid: u16,
    },
    /// QoS 2 step 1.
    Pubrec {
        /// Packet identifier.
        pid: u16,
    },
    /// QoS 2 step 2.
    Pubrel {
        /// Packet identifier.
        pid: u16,
    },
    /// QoS 2 step 3.
    Pubcomp {
        /// Packet identifier.
        pid: u16,
    },
    /// Subscription request.
    Subscribe {
        /// Packet identifier.
        pid: u16,
        /// `(filter, requested QoS)` pairs.
        filters: Vec<(String, QoS)>,
    },
    /// Subscription response.
    Suback {
        /// Packet identifier.
        pid: u16,
        /// Granted QoS per filter; 0x80 = failure.
        return_codes: Vec<u8>,
    },
    /// Unsubscribe request.
    Unsubscribe {
        /// Packet identifier.
        pid: u16,
        /// Filters to remove.
        filters: Vec<String>,
    },
    /// Unsubscribe response.
    Unsuback {
        /// Packet identifier.
        pid: u16,
    },
    /// Keep-alive ping.
    Pingreq,
    /// Keep-alive response.
    Pingresp,
    /// Clean disconnect.
    Disconnect,
}

/// Decode/encode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Structurally invalid packet.
    Malformed(&'static str),
    /// Remaining-length field exceeds the 4-byte maximum.
    RemainingLengthOverflow,
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// Payload exceeds the configured maximum packet size.
    PacketTooLarge(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Malformed(m) => write!(f, "malformed packet: {m}"),
            CodecError::RemainingLengthOverflow => write!(f, "remaining length overflow"),
            CodecError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            CodecError::PacketTooLarge(n) => write!(f, "packet of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for io::Error {
    fn from(e: CodecError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Hard upper bound on accepted packets (defensive; spec max is 256 MB).
pub const MAX_PACKET_SIZE: usize = 8 * 1024 * 1024;

// ---------------------------------------------------------------- encoding

/// Largest value the 4-byte remaining-length field can carry.
const MAX_REMAINING_LENGTH: usize = 268_435_455;

fn put_remaining_length(buf: &mut BytesMut, mut len: usize) -> Result<(), CodecError> {
    if len > MAX_REMAINING_LENGTH {
        return Err(CodecError::RemainingLengthOverflow);
    }
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        buf.put_u8(byte);
        if len == 0 {
            return Ok(());
        }
    }
}

fn put_string(buf: &mut BytesMut, s: &str) {
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn string_len(s: &str) -> usize {
    2 + s.len()
}

/// Encode `packet` onto `buf`.
///
/// # Errors
/// Only fails for over-long payloads ([`CodecError::RemainingLengthOverflow`]).
pub fn encode_packet(packet: &Packet, buf: &mut BytesMut) -> Result<(), CodecError> {
    match packet {
        Packet::Connect { client_id, keep_alive, clean_session, will, username, password } => {
            let mut flags = 0u8;
            if *clean_session {
                flags |= 0x02;
            }
            let mut len = string_len("MQTT") + 1 + 1 + 2 + string_len(client_id);
            if let Some(w) = will {
                flags |= 0x04 | ((w.qos as u8) << 3) | if w.retain { 0x20 } else { 0 };
                len += string_len(&w.topic) + 2 + w.payload.len();
            }
            if let Some(u) = username {
                flags |= 0x80;
                len += string_len(u);
            }
            if let Some(p) = password {
                flags |= 0x40;
                len += 2 + p.len();
            }
            buf.put_u8(0x10);
            put_remaining_length(buf, len)?;
            put_string(buf, "MQTT");
            buf.put_u8(4); // protocol level 3.1.1
            buf.put_u8(flags);
            buf.put_u16(*keep_alive);
            put_string(buf, client_id);
            if let Some(w) = will {
                put_string(buf, &w.topic);
                buf.put_u16(w.payload.len() as u16);
                buf.put_slice(&w.payload);
            }
            if let Some(u) = username {
                put_string(buf, u);
            }
            if let Some(p) = password {
                buf.put_u16(p.len() as u16);
                buf.put_slice(p);
            }
        }
        Packet::Connack { session_present, code } => {
            buf.put_u8(0x20);
            put_remaining_length(buf, 2)?;
            buf.put_u8(u8::from(*session_present));
            buf.put_u8(*code as u8);
        }
        Packet::Publish { topic, payload, qos, retain, dup, pid } => {
            encode_publish(buf, topic, payload, *qos, *retain, *dup, *pid)?
        }
        Packet::Puback { pid } => put_ack(buf, 0x40, *pid)?,
        Packet::Pubrec { pid } => put_ack(buf, 0x50, *pid)?,
        Packet::Pubrel { pid } => put_ack(buf, 0x62, *pid)?,
        Packet::Pubcomp { pid } => put_ack(buf, 0x70, *pid)?,
        Packet::Subscribe { pid, filters } => {
            let len = 2 + filters.iter().map(|(f, _)| string_len(f) + 1).sum::<usize>();
            buf.put_u8(0x82);
            put_remaining_length(buf, len)?;
            buf.put_u16(*pid);
            for (f, q) in filters {
                put_string(buf, f);
                buf.put_u8(*q as u8);
            }
        }
        Packet::Suback { pid, return_codes } => {
            buf.put_u8(0x90);
            put_remaining_length(buf, 2 + return_codes.len())?;
            buf.put_u16(*pid);
            for rc in return_codes {
                buf.put_u8(*rc);
            }
        }
        Packet::Unsubscribe { pid, filters } => {
            let len = 2 + filters.iter().map(|f| string_len(f)).sum::<usize>();
            buf.put_u8(0xA2);
            put_remaining_length(buf, len)?;
            buf.put_u16(*pid);
            for f in filters {
                put_string(buf, f);
            }
        }
        Packet::Unsuback { pid } => put_ack(buf, 0xB0, *pid)?,
        Packet::Pingreq => {
            buf.put_u8(0xC0);
            buf.put_u8(0);
        }
        Packet::Pingresp => {
            buf.put_u8(0xD0);
            buf.put_u8(0);
        }
        Packet::Disconnect => {
            buf.put_u8(0xE0);
            buf.put_u8(0);
        }
    }
    Ok(())
}

/// Encode one PUBLISH frame from borrowed parts onto `buf` — the frame
/// [`encode_packet`] writes for the equivalent [`Packet::Publish`], without
/// building one.  On error nothing is written, so frames already in `buf`
/// stay whole.
///
/// # Errors
/// [`CodecError::Malformed`] for a QoS > 0 publish without `pid`;
/// [`CodecError::RemainingLengthOverflow`] for over-long payloads.
pub(crate) fn encode_publish(
    buf: &mut BytesMut,
    topic: &str,
    payload: &[u8],
    qos: QoS,
    retain: bool,
    dup: bool,
    pid: Option<u16>,
) -> Result<(), CodecError> {
    let pid = match qos {
        QoS::AtMostOnce => None,
        _ => Some(pid.ok_or(CodecError::Malformed("QoS>0 publish requires pid"))?),
    };
    let len = string_len(topic) + payload.len() + if pid.is_some() { 2 } else { 0 };
    if len > MAX_REMAINING_LENGTH {
        return Err(CodecError::RemainingLengthOverflow);
    }
    let mut first = 0x30u8;
    if dup {
        first |= 0x08;
    }
    first |= (qos as u8) << 1;
    if retain {
        first |= 0x01;
    }
    buf.put_u8(first);
    put_remaining_length(buf, len)?;
    put_string(buf, topic);
    if let Some(pid) = pid {
        buf.put_u16(pid);
    }
    buf.put_slice(payload);
    Ok(())
}

fn put_ack(buf: &mut BytesMut, first: u8, pid: u16) -> Result<(), CodecError> {
    buf.put_u8(first);
    put_remaining_length(buf, 2)?;
    buf.put_u16(pid);
    Ok(())
}

// ---------------------------------------------------------------- decoding

/// Try to read the remaining-length header; `Ok(None)` when incomplete.
fn peek_remaining_length(buf: &[u8]) -> Result<Option<(usize, usize)>, CodecError> {
    // returns (value, header_bytes_after_first)
    let mut mult = 1usize;
    let mut value = 0usize;
    for i in 1..=4 {
        let Some(&b) = buf.get(i) else { return Ok(None) };
        value += (b & 0x7F) as usize * mult;
        if b & 0x80 == 0 {
            return Ok(Some((value, i)));
        }
        mult *= 128;
    }
    Err(CodecError::RemainingLengthOverflow)
}

fn get_string(buf: &mut Bytes) -> Result<String, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Malformed("truncated string length"));
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(CodecError::Malformed("truncated string body"));
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::InvalidUtf8)
}

fn get_u16(buf: &mut Bytes) -> Result<u16, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Malformed("truncated u16"));
    }
    Ok(buf.get_u16())
}

/// The extent of the frame at the front of `buf`: `Ok(None)` until its whole
/// fixed header and body are buffered, else `(frame length, header length)`.
fn frame_extent(buf: &[u8]) -> Result<Option<(usize, usize)>, CodecError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let Some((remaining, hdr_extra)) = peek_remaining_length(buf)? else {
        return Ok(None);
    };
    let total = 1 + hdr_extra + remaining;
    if total > MAX_PACKET_SIZE {
        return Err(CodecError::PacketTooLarge(total));
    }
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((total, 1 + hdr_extra)))
}

/// A PUBLISH parsed in place by [`parse_frame`]: topic and payload borrow
/// the buffer it was parsed from, so nothing is copied or allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublishRef<'a> {
    /// Destination topic.
    pub topic: &'a str,
    /// Message body.
    pub payload: &'a [u8],
    /// Delivery QoS.
    pub qos: QoS,
    /// Packet identifier, present when qos > 0.
    pub pid: Option<u16>,
}

/// One whole frame at the front of a buffer, as [`parse_frame`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame<'a> {
    /// A PUBLISH, borrowed from the buffer.
    Publish(PublishRef<'a>),
    /// Any other control packet, decoded by [`decode_packet`].
    Packet(Packet),
}

/// Parse the frame at the front of `buf` without consuming it: `Ok(None)`
/// while it is incomplete, else the frame and its length in bytes.
///
/// A PUBLISH is parsed in place and gets every check [`decode_packet`]
/// makes on one, with the same error: remaining-length overflow,
/// [`MAX_PACKET_SIZE`], QoS 3, a truncated topic or packet identifier and
/// invalid UTF-8.  Any other packet is [`decode_packet`]'s.
pub fn parse_frame(buf: &[u8]) -> Result<Option<(Frame<'_>, usize)>, CodecError> {
    let Some((total, header)) = frame_extent(buf)? else {
        return Ok(None);
    };
    let frame = if buf[0] >> 4 == 3 {
        Frame::Publish(parse_publish(buf[0] & 0x0F, &buf[header..total])?)
    } else {
        let packet = decode_packet(&mut BytesMut::from(&buf[..total]))?;
        Frame::Packet(packet.ok_or(CodecError::Malformed("incomplete frame"))?)
    };
    Ok(Some((frame, total)))
}

/// A PUBLISH body with fixed-header `flags`, borrowed.
fn parse_publish(flags: u8, body: &[u8]) -> Result<PublishRef<'_>, CodecError> {
    let qos = QoS::from_bits((flags >> 1) & 0x03)?;
    let [hi, lo, rest @ ..] = body else {
        return Err(CodecError::Malformed("truncated string length"));
    };
    let len = usize::from(u16::from_be_bytes([*hi, *lo]));
    if rest.len() < len {
        return Err(CodecError::Malformed("truncated string body"));
    }
    let (topic, rest) = rest.split_at(len);
    let topic = std::str::from_utf8(topic).map_err(|_| CodecError::InvalidUtf8)?;
    let (pid, payload) = match (qos, rest) {
        (QoS::AtMostOnce, payload) => (None, payload),
        (_, [hi, lo, payload @ ..]) => (Some(u16::from_be_bytes([*hi, *lo])), payload),
        _ => return Err(CodecError::Malformed("truncated u16")),
    };
    Ok(PublishRef { topic, payload, qos, pid })
}

/// Decode one packet from the front of `buf`.
///
/// Consumes the packet bytes on success.  Returns `Ok(None)` when `buf` does
/// not yet hold a complete packet (read more from the socket and retry).
pub fn decode_packet(buf: &mut BytesMut) -> Result<Option<Packet>, CodecError> {
    let Some((total, header)) = frame_extent(buf)? else {
        return Ok(None);
    };
    let first = buf[0];
    let frame = Bytes::copy_from_slice(&buf[..total]);
    buf.advance(total);
    let mut body = frame.slice(header..);
    let ptype = first >> 4;
    let flags = first & 0x0F;

    let packet = match ptype {
        1 => {
            let proto = get_string(&mut body)?;
            if proto != "MQTT" && proto != "MQIsdp" {
                return Err(CodecError::Malformed("bad protocol name"));
            }
            if body.remaining() < 4 {
                return Err(CodecError::Malformed("truncated CONNECT"));
            }
            let _level = body.get_u8();
            let cflags = body.get_u8();
            let keep_alive = body.get_u16();
            let client_id = get_string(&mut body)?;
            let will = if cflags & 0x04 != 0 {
                let topic = get_string(&mut body)?;
                let plen = get_u16(&mut body)? as usize;
                if body.remaining() < plen {
                    return Err(CodecError::Malformed("truncated will payload"));
                }
                let payload = body.split_to(plen);
                Some(LastWill {
                    topic,
                    payload,
                    qos: QoS::from_bits((cflags >> 3) & 0x03)?,
                    retain: cflags & 0x20 != 0,
                })
            } else {
                None
            };
            let username = if cflags & 0x80 != 0 { Some(get_string(&mut body)?) } else { None };
            let password = if cflags & 0x40 != 0 {
                let plen = get_u16(&mut body)? as usize;
                if body.remaining() < plen {
                    return Err(CodecError::Malformed("truncated password"));
                }
                Some(body.split_to(plen))
            } else {
                None
            };
            Packet::Connect {
                client_id,
                keep_alive,
                clean_session: cflags & 0x02 != 0,
                will,
                username,
                password,
            }
        }
        2 => {
            if body.remaining() < 2 {
                return Err(CodecError::Malformed("truncated CONNACK"));
            }
            let sp = body.get_u8() & 0x01 != 0;
            let code = ConnectReturnCode::from_u8(body.get_u8())?;
            Packet::Connack { session_present: sp, code }
        }
        3 => {
            let qos = QoS::from_bits((flags >> 1) & 0x03)?;
            let topic = get_string(&mut body)?;
            let pid = if qos != QoS::AtMostOnce { Some(get_u16(&mut body)?) } else { None };
            Packet::Publish {
                topic,
                payload: body,
                qos,
                retain: flags & 0x01 != 0,
                dup: flags & 0x08 != 0,
                pid,
            }
        }
        4 => Packet::Puback { pid: get_u16(&mut body)? },
        5 => Packet::Pubrec { pid: get_u16(&mut body)? },
        6 => Packet::Pubrel { pid: get_u16(&mut body)? },
        7 => Packet::Pubcomp { pid: get_u16(&mut body)? },
        8 => {
            let pid = get_u16(&mut body)?;
            let mut filters = Vec::new();
            while body.has_remaining() {
                let f = get_string(&mut body)?;
                if !body.has_remaining() {
                    return Err(CodecError::Malformed("subscribe filter missing QoS"));
                }
                let q = QoS::from_bits(body.get_u8() & 0x03)?;
                filters.push((f, q));
            }
            if filters.is_empty() {
                return Err(CodecError::Malformed("SUBSCRIBE without filters"));
            }
            Packet::Subscribe { pid, filters }
        }
        9 => {
            let pid = get_u16(&mut body)?;
            let return_codes = body.to_vec();
            Packet::Suback { pid, return_codes }
        }
        10 => {
            let pid = get_u16(&mut body)?;
            let mut filters = Vec::new();
            while body.has_remaining() {
                filters.push(get_string(&mut body)?);
            }
            Packet::Unsubscribe { pid, filters }
        }
        11 => Packet::Unsuback { pid: get_u16(&mut body)? },
        12 => Packet::Pingreq,
        13 => Packet::Pingresp,
        14 => Packet::Disconnect,
        _ => return Err(CodecError::Malformed("reserved packet type")),
    };
    Ok(Some(packet))
}

/// Whole packets out of a byte stream: read, buffer, decode.  A client takes
/// them one at a time ([`PacketReader::next`]); the broker parses all that
/// one read brought in place ([`PacketReader::fill`], [`parse_frame`] over
/// [`PacketReader::buffered`], [`PacketReader::consume`]).
#[derive(Default)]
pub struct PacketReader {
    buf: BytesMut,
    chunk: Vec<u8>,
}

impl PacketReader {
    /// The next packet, reading from `src` until one is complete; `None`
    /// at end of stream.
    ///
    /// # Errors
    /// `InvalidData` when the bytes do not decode, after which the stream
    /// cannot be resynchronised; otherwise `src`'s, read timeouts included.
    pub fn next(&mut self, src: &mut impl Read) -> io::Result<Option<Packet>> {
        loop {
            if let Some(packet) = decode_packet(&mut self.buf)? {
                return Ok(Some(packet));
            }
            if !self.fill(src)? {
                return Ok(None);
            }
        }
    }

    /// One read from `src` (at most 16 KiB), appended to the buffered bytes;
    /// `false` at end of stream.
    ///
    /// # Errors
    /// `src`'s, read timeouts included.
    pub fn fill(&mut self, src: &mut impl Read) -> io::Result<bool> {
        self.chunk.resize(16 * 1024, 0);
        let n = src.read(&mut self.chunk)?;
        self.buf.extend_from_slice(&self.chunk[..n]);
        Ok(n > 0)
    }

    /// The bytes read and not yet consumed.
    pub fn buffered(&self) -> &[u8] {
        &self.buf
    }

    /// Drop the first `n` buffered bytes: the frames the caller handled.
    ///
    /// # Panics
    /// When `n` exceeds the buffered length.
    pub fn consume(&mut self, n: usize) {
        self.buf.advance(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let mut buf = BytesMut::new();
        encode_packet(&p, &mut buf).unwrap();
        let got = decode_packet(&mut buf).unwrap().unwrap();
        assert_eq!(got, p);
        assert!(buf.is_empty(), "decoder must consume the whole frame");
    }

    #[test]
    fn roundtrip_connect_minimal() {
        roundtrip(Packet::Connect {
            client_id: "pusher-node42".into(),
            keep_alive: 60,
            clean_session: true,
            will: None,
            username: None,
            password: None,
        });
    }

    #[test]
    fn roundtrip_connect_full() {
        roundtrip(Packet::Connect {
            client_id: "c".into(),
            keep_alive: 0,
            clean_session: false,
            will: Some(LastWill {
                topic: "/dead/pusher".into(),
                payload: Bytes::from_static(b"gone"),
                qos: QoS::AtLeastOnce,
                retain: true,
            }),
            username: Some("admin".into()),
            password: Some(Bytes::from_static(b"s3cret")),
        });
    }

    #[test]
    fn roundtrip_connack() {
        roundtrip(Packet::Connack { session_present: true, code: ConnectReturnCode::Accepted });
        roundtrip(Packet::Connack {
            session_present: false,
            code: ConnectReturnCode::NotAuthorized,
        });
    }

    #[test]
    fn roundtrip_publish_qos0() {
        roundtrip(Packet::Publish {
            topic: "/lrz/sys/node0/power".into(),
            payload: Bytes::from_static(&[0u8; 16]),
            qos: QoS::AtMostOnce,
            retain: false,
            dup: false,
            pid: None,
        });
    }

    #[test]
    fn roundtrip_publish_qos1_flags() {
        roundtrip(Packet::Publish {
            topic: "/t".into(),
            payload: Bytes::from_static(b"x"),
            qos: QoS::AtLeastOnce,
            retain: true,
            dup: true,
            pid: Some(777),
        });
    }

    #[test]
    fn roundtrip_acks_and_pings() {
        roundtrip(Packet::Puback { pid: 1 });
        roundtrip(Packet::Pubrec { pid: 2 });
        roundtrip(Packet::Pubrel { pid: 3 });
        roundtrip(Packet::Pubcomp { pid: 4 });
        roundtrip(Packet::Unsuback { pid: 5 });
        roundtrip(Packet::Pingreq);
        roundtrip(Packet::Pingresp);
        roundtrip(Packet::Disconnect);
    }

    #[test]
    fn roundtrip_subscribe() {
        roundtrip(Packet::Subscribe {
            pid: 10,
            filters: vec![("/a/#".into(), QoS::AtLeastOnce), ("/b/+/c".into(), QoS::AtMostOnce)],
        });
        roundtrip(Packet::Suback { pid: 10, return_codes: vec![1, 0, 0x80] });
        roundtrip(Packet::Unsubscribe { pid: 11, filters: vec!["/a/#".into()] });
    }

    #[test]
    fn incremental_decode() {
        let mut full = BytesMut::new();
        encode_packet(
            &Packet::Publish {
                topic: "/x".into(),
                payload: Bytes::from(vec![7u8; 300]),
                qos: QoS::AtMostOnce,
                retain: false,
                dup: false,
                pid: None,
            },
            &mut full,
        )
        .unwrap();
        // feed byte by byte; must return None until the frame is complete
        let mut partial = BytesMut::new();
        let total = full.len();
        for (i, b) in full.iter().enumerate() {
            partial.put_u8(*b);
            let r = decode_packet(&mut partial).unwrap();
            if i + 1 < total {
                assert!(r.is_none(), "decoded early at byte {i}");
            } else {
                assert!(r.is_some());
            }
        }
    }

    #[test]
    fn two_packets_back_to_back() {
        let mut buf = BytesMut::new();
        encode_packet(&Packet::Pingreq, &mut buf).unwrap();
        encode_packet(&Packet::Puback { pid: 9 }, &mut buf).unwrap();
        assert_eq!(decode_packet(&mut buf).unwrap(), Some(Packet::Pingreq));
        assert_eq!(decode_packet(&mut buf).unwrap(), Some(Packet::Puback { pid: 9 }));
        assert_eq!(decode_packet(&mut buf).unwrap(), None);
    }

    #[test]
    fn remaining_length_boundaries() {
        // payload sizes crossing the 1/2/3-byte remaining-length boundaries
        for size in [0usize, 127 - 4, 128, 16383, 16384, 100_000] {
            let p = Packet::Publish {
                topic: "/t".into(),
                payload: Bytes::from(vec![0u8; size]),
                qos: QoS::AtMostOnce,
                retain: false,
                dup: false,
                pid: None,
            };
            let mut buf = BytesMut::new();
            encode_packet(&p, &mut buf).unwrap();
            assert_eq!(decode_packet(&mut buf).unwrap(), Some(p));
        }
    }

    #[test]
    fn rejects_garbage() {
        let mut buf = BytesMut::from(&[0x00u8, 0x00][..]);
        assert!(decode_packet(&mut buf).is_err());
        let mut buf = BytesMut::from(&[0xF0u8, 0x00][..]);
        assert!(decode_packet(&mut buf).is_err());
    }

    #[test]
    fn rejects_qos3_publish() {
        // 0x36 = publish with QoS bits 11
        let mut buf = BytesMut::from(&[0x36u8, 0x03, 0x00, 0x01, b'a'][..]);
        assert!(decode_packet(&mut buf).is_err());
    }

    #[test]
    fn qos1_publish_without_pid_fails_to_encode() {
        let p = Packet::Publish {
            topic: "/t".into(),
            payload: Bytes::new(),
            qos: QoS::AtLeastOnce,
            retain: false,
            dup: false,
            pid: None,
        };
        let mut buf = BytesMut::new();
        assert!(encode_packet(&p, &mut buf).is_err());
        assert!(buf.is_empty(), "a failed encode must not leave a partial frame");
    }

    #[test]
    fn invalid_utf8_topic_rejected() {
        // hand-craft publish with invalid UTF-8 topic
        let mut buf = BytesMut::new();
        buf.put_u8(0x30);
        buf.put_u8(4); // remaining
        buf.put_u16(2);
        buf.put_slice(&[0xFF, 0xFE]);
        assert_eq!(decode_packet(&mut buf), Err(CodecError::InvalidUtf8));
    }
}
