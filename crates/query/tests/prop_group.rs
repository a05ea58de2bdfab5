//! Grouped/parallel execution properties.
//!
//! 1. Parallel grouped aggregation is **bit-identical** to serial grouped
//!    aggregation, and every group's series is bit-identical to the plain
//!    ungrouped fan-in over just that group's sensors — parallelism and
//!    grouping change *scheduling*, never results.
//! 2. Re-merging the per-group partials ([`WindowedAgg::merge`])
//!    reconstructs the ungrouped whole-tree fan-in: bit-identically for the
//!    aggregations whose merge is exact under regrouping
//!    (`min`/`max`/`count`/`quantile`), and to floating-point accuracy for
//!    the moment/rate ones (Chan's merge re-associates the arithmetic).
//! 3. Grouping does not change **which compressed blocks decode**: the
//!    pushdown property survives parallelism, proven by the decode counter.

use std::sync::Arc;

mod common;
use common::fan_in;

use dcdb_query::{AggFn, QueryEngine, SensorGroup, SeriesIter, WindowedAgg};
use dcdb_sid::SensorId;
use dcdb_store::reading::TimeRange;
use dcdb_store::StoreCluster;
use proptest::prelude::*;

fn sid(n: u16) -> SensorId {
    SensorId::from_fields(&[7, (n / 4) + 1, (n % 4) + 1]).unwrap()
}

const SENSORS: u16 = 8;

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

/// Exact under arbitrary re-grouping of the merge tree?
fn merge_is_exact(agg: AggFn) -> bool {
    matches!(agg, AggFn::Min | AggFn::Max | AggFn::Count | AggFn::Quantile(_))
}

fn cluster_with(writes: &[(u16, i64, f64)], flush: bool) -> Arc<StoreCluster> {
    let cluster = Arc::new(StoreCluster::single());
    for &(s, ts, v) in writes {
        cluster.node(0).insert(sid(s), ts, v);
    }
    if flush {
        cluster.node(0).flush();
    }
    cluster
}

/// The 8 sensors split into contiguous groups of `width`.
fn groups_of(width: usize) -> Vec<SensorGroup<usize>> {
    (0..SENSORS as usize)
        .collect::<Vec<_>>()
        .chunks(width)
        .enumerate()
        .map(|(i, chunk)| SensorGroup {
            key: i,
            sids: chunk.iter().map(|&s| (sid(s as u16), 1.0)).collect(),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel == serial == per-group ungrouped fan-in, bit for bit; and
    /// merged partials reconstruct the whole-tree fan-in.
    #[test]
    fn grouped_execution_is_exact(
        writes in prop::collection::vec((0..SENSORS, 0i64..5000, -1e12f64..1e12), 1..400),
        flush in any::<bool>(),
        (start, len) in (0i64..5000, 1i64..5000),
        window in 1i64..1500,
        agg in agg_strategy(),
        width in 1usize..=8,
    ) {
        let cluster = cluster_with(&writes, flush);
        let engine = QueryEngine::new(Arc::clone(&cluster), 0);
        let range = TimeRange::new(start, (start + len).min(5000));
        let groups = groups_of(width);

        let grouped = |threads| {
            let engine = QueryEngine::new(Arc::clone(&cluster), threads);
            engine.aggregate(groups.clone(), range, window, agg, false).0
        };
        let (serial, parallel) = (grouped(1), grouped(4));

        // parallelism changes nothing, bit for bit
        prop_assert_eq!(serial.len(), parallel.len());
        for ((ks, s), (kp, p)) in serial.iter().zip(&parallel) {
            prop_assert_eq!(ks, kp);
            prop_assert_eq!(s.len(), p.len());
            for (a, b) in s.iter().zip(p) {
                prop_assert_eq!(a.ts, b.ts);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }

        // each group is exactly the ungrouped fan-in over its members
        for (group, (_, readings)) in groups.iter().zip(&parallel) {
            let direct = fan_in(&engine, &group.sids, range, window, agg);
            prop_assert_eq!(direct.len(), readings.len());
            for (a, b) in direct.iter().zip(readings) {
                prop_assert_eq!(a.ts, b.ts);
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            }
        }

        // merging the group partials reconstructs the whole-tree fan-in
        let mut merged = WindowedAgg::new(agg, window);
        for group in &groups {
            let mut partial = WindowedAgg::new(agg, window);
            for &(s, _) in &group.sids {
                partial.feed_series(SeriesIter::new(cluster.series_snapshot(s, range), range));
            }
            merged.merge(partial);
        }
        let merged = merged.finish();
        let all: Vec<(SensorId, f64)> = (0..SENSORS).map(|s| (sid(s), 1.0)).collect();
        let whole = fan_in(&engine, &all, range, window, agg);
        prop_assert_eq!(merged.len(), whole.len());
        for (a, b) in merged.iter().zip(&whole) {
            prop_assert_eq!(a.ts, b.ts);
            if merge_is_exact(agg) {
                prop_assert_eq!(a.value.to_bits(), b.value.to_bits());
            } else {
                let scale = a.value.abs().max(b.value.abs()).max(1.0);
                prop_assert!(
                    (a.value - b.value).abs() <= 1e-9 * scale,
                    "merge diverged: {} vs {}", a.value, b.value
                );
            }
        }
    }

    /// Grouping (and running the groups in parallel) decodes exactly the
    /// compressed blocks the ungrouped fan-in decodes.
    #[test]
    fn grouping_preserves_pushdown(
        writes in prop::collection::vec((0..SENSORS, 0i64..20_000, -1e9f64..1e9), 64..600),
        (start, len) in (0i64..20_000, 1i64..4000),
        width in 1usize..=8,
    ) {
        let cluster = cluster_with(&writes, true);
        let engine = QueryEngine::new(Arc::clone(&cluster), 4);
        let range = TimeRange::new(start, (start + len).min(20_000));
        let window = 500;

        let all: Vec<(SensorId, f64)> = (0..SENSORS).map(|s| (sid(s), 1.0)).collect();
        let base = cluster.blocks_decoded();
        fan_in(&engine, &all, range, window, AggFn::Avg);
        let ungrouped_decodes = cluster.blocks_decoded() - base;

        let base = cluster.blocks_decoded();
        engine.aggregate(groups_of(width), range, window, AggFn::Avg, false);
        let grouped_decodes = cluster.blocks_decoded() - base;

        prop_assert_eq!(
            grouped_decodes, ungrouped_decodes,
            "grouping changed the decoded-block count"
        );
    }
}
