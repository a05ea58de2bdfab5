//! Hot-block cache and chunked-parallel fan-in properties.
//!
//! The serial, uncached aggregation is the reference; every combination of
//! {cache on, cache off} × {1, 4 worker threads} must reproduce it **bit
//! for bit** — the cache changes only whether a block decodes, never what
//! it decodes to, and the chunked executor changes only where a chunk
//! runs, never the merge order.  The fan-in width deliberately exceeds
//! [`dcdb_query::FANIN_CHUNK`] so the chunk-split-and-merge path is really
//! exercised, and a cache far smaller than the data (evicting constantly)
//! must behave exactly like a huge one.

use std::sync::Arc;

mod common;
use common::fan_in;

use dcdb_query::{AggFn, QueryEngine, FANIN_CHUNK};
use dcdb_sid::{PartitionMap, SensorId};
use dcdb_store::reading::TimeRange;
use dcdb_store::{NodeConfig, StoreCluster};
use proptest::prelude::*;

/// More sensors than one chunk holds, so chunking always kicks in.
const SENSORS: u16 = (FANIN_CHUNK + 4) as u16;

fn sid(n: u16) -> SensorId {
    SensorId::from_fields(&[25, n + 1]).unwrap()
}

fn agg_strategy() -> impl Strategy<Value = AggFn> {
    prop_oneof![
        Just(AggFn::Avg),
        Just(AggFn::Min),
        Just(AggFn::Max),
        Just(AggFn::Sum),
        Just(AggFn::Count),
        Just(AggFn::Stddev),
        Just(AggFn::Rate),
        (0.0f64..1.0).prop_map(AggFn::Quantile),
    ]
}

fn cluster_with(
    writes: &[(u16, i64, f64)],
    flush: bool,
    cache_readings: usize,
) -> Arc<StoreCluster> {
    let cluster = Arc::new(StoreCluster::new(
        NodeConfig { block_cache_readings: cache_readings, ..Default::default() },
        PartitionMap::prefix(1, 3),
        1,
    ));
    for &(s, ts, v) in writes {
        cluster.node(0).insert(sid(s), ts, v);
    }
    if flush {
        cluster.node(0).flush();
    }
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// cache {off, on, tiny} × threads {1, 4} all equal the serial
    /// uncached reference, bit for bit — including warm re-runs served
    /// from the cache.
    #[test]
    fn cached_and_parallel_fan_in_match_serial_uncached(
        writes in prop::collection::vec((0..SENSORS, 0i64..5000, -1e12f64..1e12), 1..500),
        flush in any::<bool>(),
        (start, len) in (0i64..5000, 1i64..5000),
        window in 1i64..1500,
        agg in agg_strategy(),
    ) {
        let range = TimeRange::new(start, (start + len).min(5000));
        let sids: Vec<(SensorId, f64)> = (0..SENSORS).map(|s| (sid(s), 1.0)).collect();

        let uncached = cluster_with(&writes, flush, 0);
        let run = |cluster: &Arc<StoreCluster>, threads: usize| {
            fan_in(&QueryEngine::new(Arc::clone(cluster), threads), &sids, range, window, agg)
        };
        let reference = run(&uncached, 1);

        let check = |label: &str, out: &[dcdb_store::Reading]| {
            prop_assert_eq!(reference.len(), out.len(), "{}: length diverged", label);
            for (a, b) in reference.iter().zip(out) {
                prop_assert_eq!(a.ts, b.ts, "{}: window diverged", label);
                prop_assert_eq!(
                    a.value.to_bits(), b.value.to_bits(),
                    "{}: {} diverged: {} vs {}", label, agg, a.value, b.value
                );
            }
            Ok(())
        };

        // parallel, uncached
        check("uncached/threads=4", &run(&uncached, 4))?;

        // cached (plentiful and starved), serial and parallel, cold and warm
        for capacity in [1usize << 20, 700] {
            let cached = cluster_with(&writes, flush, capacity);
            check("cached/cold/threads=1", &run(&cached, 1))?;
            check("cached/warm/threads=4", &run(&cached, 4))?;
            check("cached/warm/threads=1", &run(&cached, 1))?;
            if let Some(c) = cached.block_cache() {
                prop_assert!(c.used_readings() <= capacity);
            }
        }
    }

    /// The cache never changes *which* readings a raw query returns, and a
    /// warm engine decodes strictly fewer (or equal) blocks than a cold
    /// one while returning the same bits.
    #[test]
    fn cache_preserves_pushdown_counters(
        writes in prop::collection::vec((0..SENSORS, 0i64..20_000, -1e9f64..1e9), 64..600),
        (start, len) in (0i64..20_000, 1i64..4000),
    ) {
        let range = TimeRange::new(start, (start + len).min(20_000));
        let sids: Vec<(SensorId, f64)> = (0..SENSORS).map(|s| (sid(s), 1.0)).collect();
        let cached = cluster_with(&writes, true, 1 << 20);
        let engine = QueryEngine::new(Arc::clone(&cached), 0);

        let cold = fan_in(&engine, &sids, range, 500, AggFn::Avg);
        let decoded_cold = cached.blocks_decoded();
        let warm = fan_in(&engine, &sids, range, 500, AggFn::Avg);
        prop_assert_eq!(
            cached.blocks_decoded(), decoded_cold,
            "a plentiful warm cache must serve every block without decoding"
        );
        prop_assert_eq!(cold.len(), warm.len());
        for (a, b) in cold.iter().zip(&warm) {
            prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
        }
    }
}
