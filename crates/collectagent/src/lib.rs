//! # dcdb-collectagent
//!
//! The DCDB Collect Agent: the data broker between Pushers and Storage
//! Backends (paper §3.1, §4.2).  It embeds a publish-only MQTT broker
//! (subscription filtering would be wasted work — the Storage Backend is the
//! only consumer), translates every MQTT topic into a 128-bit SensorID, and
//! writes readings to the storage cluster.  Like Pushers, it keeps a sensor
//! cache of the most recent readings of all connected Pushers, exposed over
//! a REST API — e.g. to feed legacy monitoring frameworks without teaching
//! them every sensor protocol (paper §5.3).

pub mod agent;
pub mod pull;
pub mod rest;

pub use agent::{CollectAgent, CollectAgentStats, SelfMonitor};
