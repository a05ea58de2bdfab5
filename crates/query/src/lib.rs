//! # dcdb-query
//!
//! The streaming query/aggregation engine: the layer that turns the
//! compression win of `dcdb-compress`/`dcdb-store` into a *query latency*
//! win, and gives dashboards (Grafana, paper §5.4) and Operational Data
//! Analytics the windowed statistics they actually ask for ("average rack
//! power over 24 h in 5-minute windows", "p99 CPU temperature per node").
//!
//! ## Layers
//!
//! * [`SeriesIter`] — re-exported from `dcdb-store`, whose one read path
//!   it is: a pull-based iterator merging a sensor's memtable slice and
//!   SSTable runs in timestamp order (newest source wins on duplicates)
//!   **without materialising full vectors**: compressed blocks are decoded
//!   one at a time, as the cursor reaches them, and blocks outside the
//!   query range were already skipped by the store's pushdown snapshot
//!   ([`dcdb_store::SeriesSnapshot`]).
//! * [`agg`] — the windowed-aggregation operator set:
//!   [`AggFn`] (`avg`/`min`/`max`/`sum`/`count`/`stddev`/`quantile(p)`/
//!   `rate`), the [`Moments`] accumulator (single Welford implementation
//!   shared with `dcdb_core::ops`), and [`WindowedAgg`] which folds one or
//!   many series into fixed time windows with mergeable partials (so
//!   sensor-tree fan-in never concatenates series).
//! * [`engine`] — [`QueryEngine`]: the façade over a
//!   [`dcdb_store::StoreCluster`] that routes to the owning node, captures
//!   pushdown snapshots and runs windowed aggregates.  libDCDB's
//!   `SensorDb` builds one per handle, on all cores, when the handle is
//!   made.  Its one entry,
//!   [`QueryEngine::aggregate`], takes [`SensorGroup`]s: one group of one
//!   sensor, one group for a whole SID sub-tree, or many sub-trees at once
//!   (group-by with one result series per sub-tree), optionally traced.
//! * [`exec`] — the scoped thread-pool executor: the unit of parallel work
//!   is a [`FANIN_CHUNK`]-sensor chunk of a group, so both many-group
//!   queries *and* one fat fan-in (a 32-sensor rack, an ungrouped sub-tree)
//!   use every core (one worker per core, atomic work-stealing cursor),
//!   with results in deterministic input order, bit-identical to serial
//!   evaluation for every thread count (the engine's thread parameter
//!   exists so the proptests can pin 1 against N).
//!
//! ## Pushdown contract
//!
//! A windowed aggregate over a range covering a small slice of a series
//! decompresses *only* the SSTable blocks whose `(min_ts, max_ts)` headers
//! intersect the range — observable via
//! [`dcdb_store::StoreNode::blocks_decoded`] and proven by the decode
//! counter tests in `tests/prop_query.rs`.  The `query` experiment in
//! `dcdb-bench` measures the resulting latency win against a full decode.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use dcdb_query::{AggFn, QueryEngine, SensorGroup};
//! use dcdb_store::{reading::TimeRange, StoreCluster};
//!
//! let cluster = Arc::new(StoreCluster::single());
//! let sid = dcdb_sid::SensorId::from_topic("/rack0/node0/power").unwrap();
//! for i in 0..600 {
//!     cluster.insert(sid, i * 1_000_000_000, 200.0 + (i % 10) as f64);
//! }
//! // all cores (0); one group holding one unscaled sensor
//! let engine = QueryEngine::new(Arc::clone(&cluster), 0);
//! let group = SensorGroup { key: "power", sids: vec![(sid, 1.0)] };
//! // 1-minute average power, untraced
//! let (out, _) = engine.aggregate(
//!     vec![group],
//!     TimeRange::new(0, 600_000_000_000),
//!     60_000_000_000,
//!     AggFn::Avg,
//!     false,
//! );
//! let avg = &out[0].1;
//! assert_eq!(avg.len(), 10);
//! assert!((avg[0].value - 204.5).abs() < 1e-9);
//! ```

pub mod agg;
pub mod engine;
pub mod exec;

pub use agg::{moments_of, parse_duration_ns, window_aggregate, AggFn, Moments, WindowedAgg};
pub use dcdb_store::SeriesIter;
pub use engine::{QueryEngine, SensorGroup, FANIN_CHUNK};
