//! Queries racing background maintenance: windowed aggregation and raw
//! range reads must be bit-identical whether the store runs synchronous
//! maintenance (threads 0) or a background pool (threads N) — including
//! *while* merges are actually in flight.
//!
//! The churn thread re-upserts existing `(sid, ts, value)` triples and
//! flushes/compacts continuously: the store's physical layout (runs,
//! blocks, merge generations) changes constantly, but the logical contents
//! never do — so any divergence observed by a racing query is a
//! maintenance bug, not a data race in the test.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

mod common;
use common::fan_in;

use dcdb_query::{AggFn, QueryEngine};
use dcdb_sid::{PartitionMap, SensorId};
use dcdb_store::reading::{Reading, TimeRange};
use dcdb_store::{NodeConfig, StoreCluster};
use proptest::prelude::*;

const INTERVAL: i64 = 1_000;

fn sid(n: u16) -> SensorId {
    SensorId::from_fields(&[61, n + 1]).unwrap()
}

/// Deterministic pseudo-random series (same for both clusters).
fn series(sensor: u16, len: usize, seed: u64) -> Vec<Reading> {
    let mut state = seed.wrapping_add(sensor as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            Reading::new(i as i64 * INTERVAL, 100.0 + (state >> 40) as f64 * 1e-3)
        })
        .collect()
}

fn build(threads: usize, sensors: u16, len: usize, seed: u64) -> Arc<StoreCluster> {
    let cluster = Arc::new(StoreCluster::new(
        NodeConfig {
            memtable_flush_entries: len / 3 + 1,
            compaction_threshold: 2,
            maintenance_threads: threads,
            max_pending_flushes: 2,
            ..Default::default()
        },
        PartitionMap::prefix(1, 2),
        1,
    ));
    for s in 0..sensors {
        for chunk in series(s, len, seed).chunks(64) {
            cluster.insert_batch(sid(s), chunk);
        }
    }
    cluster
}

fn bits(readings: &[Reading]) -> Vec<(i64, u64)> {
    readings.iter().map(|r| (r.ts, r.value.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `query_range` and windowed aggregation agree bit-for-bit between
    /// threads 0 and N while a churn thread keeps real merges in flight on
    /// the background cluster.
    #[test]
    fn aggregates_identical_with_and_without_maintenance_threads(
        sensors in 1u16..4,
        len in 256usize..1024,
        seed in 0u64..1_000,
        window_mult in 1i64..64,
        threads in 1usize..4,
    ) {
        let window = window_mult * INTERVAL;
        let range = TimeRange::new(0, len as i64 * INTERVAL);

        // reference: fully synchronous, settled store
        let sync = build(0, sensors, len, seed);
        sync.maintain();
        let sync_engine = QueryEngine::new(Arc::clone(&sync), 1);

        let bg = build(threads, sensors, len, seed);
        let bg_engine = QueryEngine::new(Arc::clone(&bg), 1);

        // churn: logically-idempotent upserts + flushes keep merges running
        let stop = Arc::new(AtomicBool::new(false));
        let churn = {
            let bg = Arc::clone(&bg);
            let stop = Arc::clone(&stop);
            let replay = series(0, len, seed);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for chunk in replay.chunks(128) {
                        bg.insert_batch(sid(0), chunk);
                    }
                    bg.node(0).flush();
                }
            })
        };

        let sids: Vec<(SensorId, f64)> = (0..sensors).map(|s| (sid(s), 1.0)).collect();
        for _ in 0..4 {
            for s in 0..sensors {
                let a = sync.query(sid(s), range);
                let b = bg.query(sid(s), range);
                prop_assert_eq!(bits(&a), bits(&b), "query_range diverged mid-churn");
            }
            for agg in [AggFn::Avg, AggFn::Max, AggFn::Count] {
                let a = fan_in(&sync_engine, &sids, range, window, agg);
                let b = fan_in(&bg_engine, &sids, range, window, agg);
                prop_assert_eq!(bits(&a), bits(&b), "aggregate {:?} diverged mid-churn", agg);
            }
        }
        stop.store(true, Ordering::Relaxed);
        churn.join().unwrap();

        // churn produced real background merges (the race was exercised),
        // and never on a writer thread
        bg.quiesce();
        let stats = bg.node(0).stats();
        prop_assert_eq!(stats.inline_merges.load(Ordering::Relaxed), 0);

        // settled state agrees too
        bg.maintain();
        for s in 0..sensors {
            let a = sync.query(sid(s), range);
            let b = bg.query(sid(s), range);
            prop_assert_eq!(bits(&a), bits(&b), "settled state diverged");
        }
    }
}
