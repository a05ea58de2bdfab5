//! # dcdb
//!
//! Facade crate for **dcdb-rs**, a Rust reproduction of
//! *"From Facility to Application Sensor Data: Modular, Continuous and
//! Holistic Monitoring with DCDB"* (Netti et al., SC 2019).
//!
//! The workspace is organised like the paper's architecture:
//!
//! * [`sid`] — 128-bit hierarchical sensor identifiers and MQTT topic mapping
//! * [`config`] — property-tree configuration files
//! * [`compress`] — Gorilla-style lossless time-series compression
//!   (delta-of-delta timestamps + XOR floats) used by the store's `DCDBSST2`
//!   on-disk format and the MQTT compressed payload encoding
//! * [`mqtt`] — MQTT 3.1.1 codec, broker and client (the transport layer)
//! * [`store`] — the wide-column distributed storage backend (Cassandra
//!   stand-in), with background flush/compaction maintenance workers so
//!   sustained ingest never stalls on database management
//! * [`query`] — the streaming query/aggregation engine with pushdown into
//!   compressed SSTable blocks (windowed `avg`/`p99`/`rate`/… over sensors
//!   or whole sensor sub-trees)
//! * [`obs`] — lock-free self-monitoring: metrics registry, latency
//!   histograms, per-query span traces (Prometheus `/metrics`, `--explain`,
//!   the reserved `_dcdb/` self-sensor hierarchy)
//! * [`http`] — minimal HTTP/1.1 + JSON for the RESTful APIs
//! * [`sim`] — simulated HPC cluster substrate (architectures, devices, workloads)
//! * [`pusher`] — the plugin-based data-collection agent
//! * [`collectagent`] — the publish-only MQTT broker writing to storage
//! * [`core`] — libDCDB: the unified typed query API
//!   (`QueryRequest`/`QueryResponse` via `SensorDb::execute`, with group-by
//!   and parallel grouped execution), virtual sensors, units, analysis
//!   operations
//!
//! ## Quickstart
//!
//! ```
//! use dcdb::store::cluster::StoreCluster;
//! use dcdb::store::reading::TimeRange;
//! use dcdb::sid::SensorId;
//!
//! let cluster = StoreCluster::single();
//! let sid = SensorId::from_topic("/lrz/system1/rack0/node0/power").unwrap();
//! cluster.insert(sid, 1_000_000, 240.0);
//! let readings = cluster.query(sid, TimeRange::new(0, 2_000_000));
//! assert_eq!(readings.len(), 1);
//! ```

pub use dcdb_collectagent as collectagent;
pub use dcdb_compress as compress;
pub use dcdb_config as config;
pub use dcdb_core as core;
pub use dcdb_http as http;
pub use dcdb_mqtt as mqtt;
pub use dcdb_obs as obs;
pub use dcdb_pusher as pusher;
pub use dcdb_query as query;
pub use dcdb_sid as sid;
pub use dcdb_sim as sim;
pub use dcdb_store as store;
