//! `dcdb-benchmark`: one end-to-end and per-layer benchmark of the real
//! path — Pusher → MQTT over TCP → Collect Agent → store → query → REST.
//!
//! See `README.md` for the metrics, the workloads and how to word a claim.
//! Only [`sut`] touches the workspace crates.

pub mod affinity;
pub mod cli;
pub mod gen;
pub mod http;
pub mod json;
pub mod layers;
pub mod live;
pub mod oracle;
pub mod proc;
pub mod report;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workload;
