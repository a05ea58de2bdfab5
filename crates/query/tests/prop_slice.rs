//! The slice fold and the single block path against their references.
//!
//! 1. `WindowedAgg::feed_slice` equals `feed_series` **bit for bit** for
//!    every aggregation, with NaN, ±∞ and −0.0 among the values, for a
//!    series cut into slices at arbitrary points (so slices straddle both
//!    window and block boundaries) and for several series folded into one
//!    accumulator.
//! 2. The engine's bulk path (`SeriesIter::for_each_slice` into
//!    `feed_slice`) equals feeding the merge iterator reading by reading,
//!    on single-run and multi-run snapshots, and decodes exactly the same
//!    blocks.

use std::sync::Arc;

mod common;
use common::fan_in;

use dcdb_query::{AggFn, QueryEngine, SeriesIter, WindowedAgg, FANIN_CHUNK};
use dcdb_sid::SensorId;
use dcdb_store::reading::{Reading, TimeRange};
use dcdb_store::{NodeConfig, StoreCluster};
use proptest::prelude::*;

fn agg_strategy() -> impl Strategy<Value = AggFn> {
    prop_oneof![
        Just(AggFn::Avg),
        Just(AggFn::Min),
        Just(AggFn::Max),
        Just(AggFn::Sum),
        Just(AggFn::Count),
        Just(AggFn::Stddev),
        (0.0f64..1.0).prop_map(AggFn::Quantile),
    ]
}

/// Values that stress the fold: specials next to ordinary numbers.
fn value() -> impl Strategy<Value = f64> {
    prop_oneof![
        4.0 => -1e6f64..1e6,
        1.0 => (0u8..5).prop_map(|k| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0]
            [k as usize]),
    ]
}

/// A strictly increasing series starting anywhere (pre-epoch included).
fn series() -> impl Strategy<Value = Vec<Reading>> {
    (-5_000i64..5_000, prop::collection::vec((1i64..40, value()), 0..400)).prop_map(
        |(start, steps)| {
            let mut ts = start;
            steps
                .into_iter()
                .map(|(gap, value)| {
                    ts += gap;
                    Reading { ts, value }
                })
                .collect()
        },
    )
}

fn assert_bits(a: &[Reading], b: &[Reading], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len(), "{}: window count", what);
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!((x.ts, x.value.to_bits()), (y.ts, y.value.to_bits()), "{}", what);
    }
    Ok(())
}

fn sid(n: usize) -> SensorId {
    SensorId::from_fields(&[31, n as u16 + 1]).unwrap()
}

proptest! {
    #[test]
    fn feed_slice_equals_feed_series(
        agg in agg_strategy(),
        window in 1i64..500,
        all in prop::collection::vec((series(), prop::collection::vec(0usize..400, 0..6)), 1..4),
    ) {
        let mut by_slice = WindowedAgg::new(agg, window);
        let mut by_series = WindowedAgg::new(agg, window);
        for (s, cuts) in &all {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(s.len())).collect();
            cuts.sort_unstable();
            let mut from = 0;
            for to in cuts.into_iter().chain([s.len()]) {
                by_slice.feed_slice(&s[from..to]);
                from = to;
            }
            by_series.feed_series(s.iter().copied());
        }
        assert_bits(&by_slice.finish(), &by_series.finish(), &format!("{agg}"))?;
    }

    #[test]
    fn bulk_path_equals_merge_path(
        agg in agg_strategy(),
        sensors in 1usize..=FANIN_CHUNK,
        n in 1usize..1800,
        compact in any::<bool>(),
        cache in any::<bool>(),
        (start, len) in (0i64..4_000, 1i64..4_000),
        window in 1i64..700,
    ) {
        let cluster = Arc::new(StoreCluster::new(
            NodeConfig {
                memtable_flush_entries: 700,
                compaction_threshold: usize::MAX,
                block_cache_readings: if cache { 1 << 20 } else { 0 },
                ..Default::default()
            },
            dcdb_sid::PartitionMap::prefix(1, 3),
            1,
        ));
        for s in 0..sensors {
            for i in 0..n {
                let ts = 2 * i as i64 + s as i64 % 2;
                let v = ((i * 7 + s * 13) % 101) as f64 - 50.5;
                cluster.insert(sid(s), ts, if i % 97 == 5 { -0.0 } else { v });
            }
        }
        if compact {
            cluster.maintain(); // one run per sensor: the zero-copy path
        }
        let range = TimeRange::new(start, start + len);
        let sids: Vec<(SensorId, f64)> = (0..sensors).map(|s| (sid(s), 1.0)).collect();
        let engine = QueryEngine::new(Arc::clone(&cluster), 1);

        let base = cluster.blocks_decoded();
        let bulk = fan_in(&engine, &sids, range, window, agg);
        let bulk_decodes = cluster.blocks_decoded() - base;

        // with a cache the second pass runs warm: decode counts compare
        // only uncached
        let fresh = cluster.blocks_decoded();
        let mut w = WindowedAgg::new(agg, window);
        for &(s, _) in &sids {
            w.feed_series(SeriesIter::new(cluster.series_snapshot(s, range), range));
        }
        let merge_decodes = cluster.blocks_decoded() - fresh;
        assert_bits(&bulk, &w.finish(), &format!("{agg} compact={compact}"))?;
        if !cache {
            prop_assert_eq!(bulk_decodes, merge_decodes);
        }
    }
}
