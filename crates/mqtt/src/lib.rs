//! # dcdb-mqtt
//!
//! A self-contained MQTT 3.1.1 implementation: the transport layer between
//! DCDB Pushers and Collect Agents (paper §3.1).  MQTT was chosen by the
//! paper because it is lightweight, telemetry-oriented and widely supported;
//! this crate reproduces the protocol surface the framework relies on:
//!
//! * [`codec`] — wire format for all fourteen 3.1.1 control packets,
//! * [`topic`] — topic filters with `+`/`#` wildcard matching,
//! * [`broker`] — a TCP broker, one blocking thread per connection.  Like
//!   DCDB's Collect Agent it is *publish-only*: it refuses every
//!   subscription, so no topic-filtering cost is paid (paper §4.2), and an
//!   in-process sink receives the publishes of each socket read as one
//!   batch of borrowed [`PublishRef`]s instead,
//! * [`client`] — a blocking publishing client with QoS 0/1 publish,
//!   keep-alive and automatic reconnect.

pub mod broker;
pub mod client;
pub mod codec;
pub mod payload;
pub mod topic;

pub use broker::{Broker, BrokerConfig, BrokerStats, PublishSink, Sink};
pub use client::{Client, ClientConfig, ClientError};
pub use codec::{
    decode_packet, encode_packet, parse_frame, ConnectReturnCode, Frame, Packet, PacketReader,
    PublishRef, QoS,
};
pub use topic::{filter_matches, is_valid_filter};
