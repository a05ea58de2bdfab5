//! # dcdb-collectagent
//!
//! The DCDB Collect Agent: the data broker between Pushers and Storage
//! Backends (paper §3.1, §4.2).  It embeds a publish-only MQTT broker
//! (subscription filtering would be wasted work — the Storage Backend is the
//! only consumer), translates every MQTT topic into a 128-bit SensorID, and
//! writes readings to the storage cluster.  Like Pushers, it serves the most
//! recent reading of every sensor over a REST API — e.g. to feed legacy
//! monitoring frameworks without teaching them every sensor protocol (paper
//! §5.3); the readings come from the store, not from a copy of its own.

pub mod agent;
pub mod pull;
pub mod rest;

pub use agent::{CollectAgent, CollectAgentStats, SelfMonitor};
