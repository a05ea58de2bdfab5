//! Property tests: the store behaves like a sorted map from
//! `(sensor, timestamp)` to the most recently written value, regardless of
//! flush/compaction boundaries or cluster partitioning.  The `BTreeMap`
//! model is the reference for the store's one read path, `SeriesIter`
//! (what `query_range` collects) and for `latest`: full and sub-range
//! reads, tombstones and TTL expiry.

use std::collections::BTreeMap;

use dcdb_sid::{PartitionMap, SensorId};
use dcdb_store::{node::NodeConfig, reading::TimeRange, StoreCluster, StoreNode};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert {
        sensor: u16,
        ts: i64,
        value: f64,
    },
    Flush,
    Compact,
    Delete {
        sensor: u16,
        start: i64,
        len: i64,
    },
    /// Move "now" (the TTL base) forward.
    Advance {
        by: i64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u16..4, 0i64..1000, -1e6f64..1e6).prop_map(|(sensor, ts, value)| Op::Insert {
            sensor,
            ts,
            value
        }),
        1 => Just(Op::Flush),
        1 => Just(Op::Compact),
        1 => (0u16..4, 0i64..1000, 1i64..200).prop_map(|(sensor, start, len)| Op::Delete {
            sensor,
            start,
            len
        }),
        1 => (0i64..100).prop_map(|by| Op::Advance { by }),
    ]
}

fn sid(n: u16) -> SensorId {
    SensorId::from_fields(&[42, n + 1]).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn node_matches_model(ops in prop::collection::vec(op_strategy(), 1..300),
                          flush_entries in 4usize..64,
                          ttl in prop_oneof![Just(None), (1i64..600).prop_map(Some)],
                          reads in prop::collection::vec((0i64..1100, 0i64..400), 1..5)) {
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: flush_entries,
            compaction_threshold: 3,
            ttl,
            ..Default::default()
        });
        let mut model: BTreeMap<(u16, i64), f64> = BTreeMap::new();
        let mut now = 0i64;
        for op in &ops {
            match *op {
                Op::Insert { sensor, ts, value } => {
                    node.insert(sid(sensor), ts, value);
                    model.insert((sensor, ts), value);
                }
                Op::Flush => node.flush(),
                Op::Compact => node.compact(),
                Op::Delete { sensor, start, len } => {
                    node.delete_range(sid(sensor), TimeRange::new(start, start + len));
                    model.retain(|&(s, t), _| !(s == sensor && t >= start && t < start + len));
                }
                // monotonic, so whatever a compaction purged as expired
                // stays expired in the model too
                Op::Advance { by } => {
                    now += by;
                    node.set_now(now);
                }
            }
        }
        // readings older than the TTL horizon are invisible
        let horizon = ttl.map_or(i64::MIN, |ttl| now - ttl);
        let full = (i64::MIN, i64::MAX);
        for sensor in 0..4u16 {
            for (start, end) in std::iter::once(full).chain(reads.iter().map(|&(s, l)| (s, s + l))) {
                let got = node.query_range(sid(sensor), TimeRange::new(start, end));
                let want: Vec<(i64, f64)> = model
                    .range((sensor, start)..(sensor, end))
                    .filter(|(&(_, t), _)| t >= horizon)
                    .map(|(&(_, t), &v)| (t, v))
                    .collect();
                let got: Vec<(i64, f64)> = got.iter().map(|r| (r.ts, r.value)).collect();
                prop_assert_eq!(got, want, "sensor {} diverged on [{}, {})", sensor, start, end);
            }
            // the newest reading at or after the horizon, as a query sees it
            let latest = node.latest(sid(sensor)).map(|r| (r.ts, r.value));
            let want = model
                .range((sensor, horizon)..=(sensor, i64::MAX))
                .next_back()
                .map(|(&(_, t), &v)| (t, v));
            prop_assert_eq!(latest, want, "sensor {} latest diverged", sensor);
        }
    }

    #[test]
    fn cluster_equals_single_node(inserts in prop::collection::vec(
        (0u16..16, 0i64..500, -1e3f64..1e3), 1..400), nodes in 1usize..6) {
        let cluster = StoreCluster::new(
            NodeConfig::default(),
            PartitionMap::prefix(nodes, 2),
            1,
        );
        let reference = StoreCluster::single();
        for &(s, ts, v) in &inserts {
            cluster.insert(sid(s), ts, v);
            reference.insert(sid(s), ts, v);
        }
        for s in 0..16u16 {
            let a = cluster.query(sid(s), TimeRange::new(0, 500));
            let b = reference.query(sid(s), TimeRange::new(0, 500));
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn replication_is_consistent(inserts in prop::collection::vec(
        (0u16..8, 0i64..100, -1e3f64..1e3), 1..100)) {
        let cluster = StoreCluster::new(
            NodeConfig::default(),
            PartitionMap::prefix(3, 2),
            2,
        );
        for &(s, ts, v) in &inserts {
            cluster.insert(sid(s), ts, v);
        }
        // primary and replica agree for every sensor
        for s in 0..8u16 {
            let primary = cluster.primary_for(sid(s));
            let replica = (primary + 1) % 3;
            let a = cluster.node(primary).query_range(sid(s), TimeRange::all());
            let b = cluster.node(replica).query_range(sid(s), TimeRange::all());
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn query_subrange_is_filter_of_full(inserts in prop::collection::vec(
        (0i64..1000, -1e3f64..1e3), 1..200), start in 0i64..1000, len in 0i64..1000) {
        // a small memtable flushes every 16 inserts, so sub-ranges cross
        // SSTable runs (and compactions) as well as the memtable
        let node =
            StoreNode::new(NodeConfig { memtable_flush_entries: 16, ..Default::default() });
        for &(ts, v) in &inserts {
            node.insert(sid(0), ts, v);
        }
        let full = node.query_range(sid(0), TimeRange::all());
        let sub = node.query_range(sid(0), TimeRange::new(start, start + len));
        let expect: Vec<_> = full
            .iter()
            .filter(|r| r.ts >= start && r.ts < start + len)
            .copied()
            .collect();
        prop_assert_eq!(sub, expect);
    }
}
