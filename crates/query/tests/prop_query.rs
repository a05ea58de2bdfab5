//! Pushdown correctness properties.
//!
//! 1. The engine's bulk-slice aggregate is **bit-identical** to naive
//!    aggregation of the materialised range (collect it with
//!    `StoreCluster::query`, fold reading by reading) over random series,
//!    ranges and windows — flush boundaries, duplicate timestamps and
//!    raw-fallback blocks included.  The read itself is checked against a
//!    `BTreeMap` model in `dcdb-store`'s `prop_store.rs`.
//! 2. Blocks that do not intersect the queried range are **never
//!    decompressed**, proven by the per-node decode counter.

use std::sync::Arc;

mod common;
use common::fan_in;

use dcdb_query::{window_aggregate, AggFn, QueryEngine};
use dcdb_sid::SensorId;
use dcdb_store::reading::TimeRange;
use dcdb_store::StoreCluster;
use proptest::prelude::*;

fn sid(n: u16) -> SensorId {
    SensorId::from_fields(&[21, n + 1]).unwrap()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pushdown aggregate == aggregating the naive full decode, bit for bit.
    #[test]
    fn pushdown_aggregate_bit_identical_to_naive(
        writes in prop::collection::vec((0u16..2, 0i64..5000, -1e12f64..1e12), 1..500),
        flush_entries in 8usize..300,
        (start, len) in (0i64..5000, 1i64..5000),
        window in 1i64..1500,
        agg in agg_strategy(),
    ) {
        let cluster = Arc::new(StoreCluster::single());
        for &(s, ts, v) in &writes {
            cluster.node(0).insert(sid(s), ts, v);
        }
        // split across several runs like a live node would be
        if flush_entries < writes.len() {
            cluster.node(0).flush();
        }
        let engine = QueryEngine::new(Arc::clone(&cluster), 0);
        let range = TimeRange::new(start, (start + len).min(5000));
        for s in 0..2u16 {
            let pushed = fan_in(&engine, &[(sid(s), 1.0)], range, window, agg);
            let naive =
                window_aggregate(cluster.query(sid(s), range).into_iter(), window, agg);
            prop_assert_eq!(pushed.len(), naive.len());
            for (a, b) in pushed.iter().zip(&naive) {
                prop_assert_eq!(a.ts, b.ts);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }
    }
}

/// The decode counter proves out-of-range blocks are *not* decompressed.
#[test]
fn out_of_range_blocks_are_not_decoded() {
    let cluster = Arc::new(StoreCluster::single());
    let s = sid(0);
    // 16 flushed runs of 2048 readings = 4 blocks each, 64 blocks total
    for run in 0..16i64 {
        for i in 0..2048i64 {
            cluster.node(0).insert(s, run * 2048 + i, (run * 2048 + i) as f64);
        }
        cluster.node(0).flush();
    }
    assert_eq!(cluster.block_count(), 64);
    assert_eq!(cluster.blocks_decoded(), 0);

    let engine = QueryEngine::new(Arc::clone(&cluster), 0);
    // a range covering < 10% of the series: [4000, 6000) touches blocks
    // [3584..4095], [4096..4607], [4608..5119], [5632..6143] boundaries —
    // at most 5 of the 64 blocks intersect
    let out = fan_in(&engine, &[(s, 1.0)], TimeRange::new(4000, 6000), 500, AggFn::Avg);
    assert_eq!(out.len(), 4);
    let decoded = cluster.blocks_decoded();
    assert!(decoded <= 5, "expected ≤ 5 of 64 blocks decoded, got {decoded}");
    assert!(decoded >= 4, "the intersecting blocks must decode, got {decoded}");

    // a disjoint range decodes nothing new
    let before = cluster.blocks_decoded();
    let out = fan_in(&engine, &[(s, 1.0)], TimeRange::new(100_000, 200_000), 500, AggFn::Avg);
    assert!(out.is_empty());
    assert_eq!(cluster.blocks_decoded(), before);

    // the full scan pays for every block exactly once
    let before = cluster.blocks_decoded();
    let out = fan_in(&engine, &[(s, 1.0)], TimeRange::all(), i64::MAX / 4, AggFn::Count);
    assert_eq!(out.iter().map(|r| r.value).sum::<f64>(), 16.0 * 2048.0);
    assert_eq!(cluster.blocks_decoded() - before, 64);
}
