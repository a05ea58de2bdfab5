//! # dcdb-store
//!
//! The Storage Backend substrate: a from-scratch wide-column time-series
//! store standing in for Apache Cassandra (paper §3.1, §4.3).
//!
//! Monitoring data is time-series data acquired and consumed in bulk; each
//! data point is a `<sensor, timestamp, reading>` tuple.  The paper picks a
//! wide-column noSQL store for its ingest/retrieval performance on streaming
//! data and for its data-distribution mechanism.  This crate reproduces the
//! relevant machinery:
//!
//! * [`reading`] — the reading tuple and time-range types,
//! * [`memtable`] — the mutable in-memory write buffer,
//! * [`sstable`] — immutable sorted runs flushed from memtables, with a
//!   per-sensor index and binary on-disk format,
//! * [`node`] — one storage server: memtable + SSTables + tombstones + TTL +
//!   size-tiered compaction, handing reads out as [`SeriesSnapshot`]s,
//! * [`iter`] — [`SeriesIter`], the one range-read path: a lazy k-way merge
//!   of a snapshot's runs (newest source wins on duplicate timestamps,
//!   tombstoned and expired readings dropped) that raw reads collect and
//!   windowed aggregation folds,
//! * [`cluster`] — the distributed layer: SID-prefix partitioning (DCDB's
//!   "store a sensor's readings on the nearest server"), replication and
//!   cluster-wide queries,
//! * [`cache`] — the decoded-block cache: a sharded, reading-budgeted LRU
//!   that turns repeated dashboard queries over the same hot blocks into
//!   hash lookups instead of Gorilla decodes,
//! * [`maintenance`] — the background flush/compaction worker pool: moves
//!   SSTable encodes and merges off the insert path so sustained ingest
//!   never stalls on database management, with bounded-backlog
//!   backpressure, periodic time-based flushes and TTL enforcement,
//! * [`csv`] — CSV import/export used by the `csvimport`/`dcdbquery` tools.

pub mod cache;
pub mod cluster;
pub mod csv;
pub mod iter;
pub(crate) mod locks;
pub mod maintenance;
pub mod memtable;
pub mod node;
pub mod reading;
pub mod sstable;

pub use cache::{BlockCache, BlockKey, CacheStats};
pub use cluster::{ClusterStats, StoreCluster};
pub use iter::SeriesIter;
pub use maintenance::{MaintenancePool, MaintenanceSnapshot};
pub use node::{NodeConfig, NodeInstruments, SeriesSnapshot, SnapshotRun, StoreNode};
pub use reading::{Reading, TimeRange};
pub use sstable::{BlockRef, SsTable};
