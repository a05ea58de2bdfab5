//! [`QueryEngine`]: the query façade over a store cluster.
//!
//! Routes each sensor to its owning node (the paper's "queries go straight
//! to the server holding the sub-tree", §4.3), captures pushdown snapshots
//! and folds the resulting streams through [`crate::WindowedAgg`].  Sensor
//! resolution (topics, prefixes, metadata scaling) lives a layer up in
//! `dcdb_core::SensorDb::execute`; the engine works on raw
//! [`SensorId`]s so the Collect Agent can use it without libDCDB.

use std::sync::Arc;
use std::time::Instant;

use dcdb_obs::TraceSpan;
use dcdb_sid::SensorId;
use dcdb_store::reading::{Reading, TimeRange};
use dcdb_store::{SeriesIter, StoreCluster};

use crate::agg::{AggFn, WindowedAgg};
use crate::exec;

/// One group of a grouped aggregation: an opaque key (typically the
/// SID-prefix topic naming the sub-tree) plus the member sensors with their
/// per-sensor scales.
#[derive(Debug, Clone)]
pub struct SensorGroup<K> {
    /// Caller-defined group key, returned untouched with the result.
    pub key: K,
    /// Member sensors and their metadata scales, in feed order.
    pub sids: Vec<(SensorId, f64)>,
}

/// Sensors per fan-in chunk: a group's sensor list is split into chunks of
/// this size and the chunks become the unit of parallel work, merged back
/// in order via [`WindowedAgg::merge`].
///
/// The chunking is **independent of the worker-thread count**, so the same
/// chunk partials merge in the same order whether one thread or sixteen
/// evaluate them — serial and parallel execution are bit-identical by
/// construction (the thread count only decides *where* a chunk runs).
pub const FANIN_CHUNK: usize = 8;

/// A streaming query engine over a [`StoreCluster`].
pub struct QueryEngine {
    cluster: Arc<StoreCluster>,
    /// Worker-thread cap for parallel evaluation of fan-in chunks.
    threads: usize,
}

impl QueryEngine {
    /// Wrap a cluster with a worker-thread cap for parallel evaluation:
    /// `1` keeps every query on the calling thread, `0` means "all
    /// available cores", resolved here once.  Results are bit-identical for
    /// every value (see [`FANIN_CHUNK`]); `dcdb_core::SensorDb` builds its
    /// one engine with `0`.
    pub fn new(cluster: Arc<StoreCluster>, threads: usize) -> QueryEngine {
        let threads = if threads == 0 { exec::default_parallelism() } else { threads };
        QueryEngine { cluster, threads }
    }

    /// Windowed aggregation of every [`SensorGroup`]: each group's
    /// `(sid, scale)` series are scaled and folded into the same windows via
    /// mergeable partials (see [`WindowedAgg`]), one result series per
    /// group, in input group order.  A plain sensor-tree fan-in is one
    /// group.
    ///
    /// The unit of parallel work is a [`FANIN_CHUNK`]-sensor *chunk*, not a
    /// whole group, so one fat group (a 32-sensor rack fan-in) scales with
    /// cores exactly like many small groups do; chunk partials merge in
    /// chunk order whatever the schedule, so results are bit-identical to
    /// serial evaluation.  Blocks outside `range` are never decompressed,
    /// and neither grouping nor chunking changes *which* blocks decode.
    ///
    /// With `traced`, every chunk's fan-in is individually timed and the
    /// returned span tree records the fold and merge stages (`chunk:<i>`
    /// children carry `group` and `sensors` meta); results are the same
    /// bits either way, and an untraced call builds no span.
    pub fn aggregate<K>(
        &self,
        groups: Vec<SensorGroup<K>>,
        range: TimeRange,
        window_ns: i64,
        agg: AggFn,
        traced: bool,
    ) -> (Vec<(K, Vec<Reading>)>, Option<TraceSpan>) {
        // only the sensor lists cross into worker threads; keys stay here,
        // so group keys need no Send/Sync bounds
        let (keys, sid_lists): (Vec<K>, Vec<Vec<(SensorId, f64)>>) =
            groups.into_iter().map(|g| (g.key, g.sids)).unzip();
        let tasks = chunk_tasks(&sid_lists);
        let t_fold = traced.then(Instant::now);
        let folded = exec::run_tasks(tasks.len(), self.threads, |i| {
            let (group, chunk) = tasks[i];
            if !traced {
                return (self.fan_in_chunk(chunk, range, window_ns, agg), None);
            }
            let (partial, span) = TraceSpan::time(format!("chunk:{i}"), |span| {
                span.put("group", group as u64);
                span.put("sensors", chunk.len() as u64);
                self.fan_in_chunk(chunk, range, window_ns, agg)
            });
            (partial, Some(span))
        });
        let Some(t_fold) = t_fold else {
            return (merge_groups(keys, &tasks, folded.into_iter().map(|(p, _)| p)), None);
        };
        let mut fold = TraceSpan::new("fold");
        fold.wall_ns = t_fold.elapsed().as_nanos() as u64;
        fold.put("groups", keys.len() as u64);
        fold.put("chunks", tasks.len() as u64);
        fold.put("threads", self.threads as u64);
        let mut partials = Vec::with_capacity(folded.len());
        for (partial, span) in folded {
            partials.push(partial);
            fold.children.extend(span);
        }
        let (out, merge) = TraceSpan::time("merge", |span| {
            span.put("groups", keys.len() as u64);
            merge_groups(keys, &tasks, partials)
        });
        let mut root = TraceSpan::new("execute");
        root.wall_ns = fold.wall_ns + merge.wall_ns;
        root.push_child(fold);
        root.push_child(merge);
        (out, Some(root))
    }

    /// One chunk's serial fan-in: feed every member series into a single
    /// accumulator on the calling thread.
    fn fan_in_chunk(
        &self,
        sids: &[(SensorId, f64)],
        range: TimeRange,
        window_ns: i64,
        agg: AggFn,
    ) -> WindowedAgg {
        let mut w = WindowedAgg::new(agg, window_ns);
        for &(sid, scale) in sids {
            let iter = SeriesIter::new(self.cluster.series_snapshot(sid, range), range);
            if scale != 1.0 {
                w.feed_series(iter.map(|r| Reading { ts: r.ts, value: r.value * scale }));
            } else if matches!(agg, AggFn::Rate) {
                // each feed call closes a rate series: slices must not split
                // one series' first/last pairs
                w.feed_series(iter);
            } else {
                // bulk path, unscaled (so results stay bit-identical with
                // aggregation over raw store readings): the shared block
                // payloads go straight into the window-run fold.  Same
                // pushes in the same order as feeding the iterator.
                iter.for_each_slice(|slice| w.feed_slice(slice));
            }
        }
        w
    }
}

/// Flatten every group into [`FANIN_CHUNK`]-sensor `(group, chunk)` tasks,
/// so a single wide group parallelises too (intra-group fan-in).
fn chunk_tasks(sid_lists: &[Vec<(SensorId, f64)>]) -> Vec<(usize, &[(SensorId, f64)])> {
    sid_lists
        .iter()
        .enumerate()
        .flat_map(|(group, sids)| sids.chunks(FANIN_CHUNK).map(move |c| (group, c)))
        .collect()
}

/// Merge each group's chunk partials in chunk order — deterministic
/// whatever the schedule was — and finish them, in group order.
fn merge_groups<K>(
    keys: Vec<K>,
    tasks: &[(usize, &[(SensorId, f64)])],
    partials: impl IntoIterator<Item = WindowedAgg>,
) -> Vec<(K, Vec<Reading>)> {
    let mut accs: Vec<Option<WindowedAgg>> = keys.iter().map(|_| None).collect();
    for (&(group, _), partial) in tasks.iter().zip(partials) {
        match &mut accs[group] {
            Some(acc) => acc.merge(partial),
            empty => *empty = Some(partial),
        }
    }
    keys.into_iter()
        .zip(accs)
        .map(|(k, acc)| (k, acc.map_or_else(Vec::new, WindowedAgg::finish)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_sid::PartitionMap;
    use dcdb_store::NodeConfig;

    fn sid(t: &str) -> SensorId {
        SensorId::from_topic(t).unwrap()
    }

    /// One untraced group over `sids`: the plain sensor-tree fan-in.
    fn fan_in(
        engine: &QueryEngine,
        sids: &[(SensorId, f64)],
        range: TimeRange,
        window_ns: i64,
        agg: AggFn,
    ) -> Vec<Reading> {
        let group = SensorGroup { key: (), sids: sids.to_vec() };
        let (mut out, span) = engine.aggregate(vec![group], range, window_ns, agg, false);
        assert!(span.is_none(), "an untraced call builds no span");
        out.pop().expect("one group").1
    }

    fn engine_with_data() -> (QueryEngine, Vec<SensorId>) {
        let cluster =
            Arc::new(StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(3, 2), 1));
        let sids: Vec<SensorId> = (0..3).map(|n| sid(&format!("/rack0/node{n}/power"))).collect();
        for (i, &s) in sids.iter().enumerate() {
            for ts in 0..600 {
                cluster.insert(s, ts * 1_000_000_000, 100.0 * (i + 1) as f64);
            }
        }
        cluster.maintain();
        (QueryEngine::new(cluster, 0), sids)
    }

    #[test]
    fn single_sensor_windowed_avg() {
        let (engine, sids) = engine_with_data();
        let out = fan_in(
            &engine,
            &[(sids[0], 1.0)],
            TimeRange::new(0, 600_000_000_000),
            60_000_000_000,
            AggFn::Avg,
        );
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|r| r.value == 100.0));
        assert_eq!(out[3].ts, 180_000_000_000);
    }

    #[test]
    fn fan_in_sums_across_sensors() {
        let (engine, sids) = engine_with_data();
        let pairs: Vec<(SensorId, f64)> = sids.iter().map(|&s| (s, 1.0)).collect();
        let out =
            fan_in(&engine, &pairs, TimeRange::new(0, 600_000_000_000), 60_000_000_000, AggFn::Sum);
        // each window: 60 readings × (100 + 200 + 300)
        assert!(out.iter().all(|r| r.value == 60.0 * 600.0));
        // avg across the tree
        let out =
            fan_in(&engine, &pairs, TimeRange::new(0, 600_000_000_000), 60_000_000_000, AggFn::Avg);
        assert!(out.iter().all(|r| (r.value - 200.0).abs() < 1e-9));
    }

    #[test]
    fn scale_is_applied() {
        let (engine, sids) = engine_with_data();
        let out = fan_in(
            &engine,
            &[(sids[0], 0.001)],
            TimeRange::new(0, 600_000_000_000),
            600_000_000_000,
            AggFn::Max,
        );
        assert_eq!(out.len(), 1);
        assert!((out[0].value - 0.1).abs() < 1e-12);
    }

    #[test]
    fn grouped_matches_per_group_fan_in() {
        let (engine, sids) = engine_with_data();
        let range = TimeRange::new(0, 600_000_000_000);
        let groups = vec![
            SensorGroup { key: "a", sids: vec![(sids[0], 1.0), (sids[1], 1.0)] },
            SensorGroup { key: "b", sids: vec![(sids[2], 1.0)] },
        ];
        for threads in [1, 4] {
            let engine = QueryEngine::new(Arc::clone(&engine.cluster), threads);
            let (out, _) =
                engine.aggregate(groups.clone(), range, 60_000_000_000, AggFn::Avg, false);
            assert_eq!(out.len(), 2);
            assert_eq!(out[0].0, "a");
            assert_eq!(out[1].0, "b");
            // group results equal the serial fan-in over the same members
            let serial = QueryEngine::new(Arc::clone(&engine.cluster), 1);
            let a = fan_in(&serial, &groups[0].sids, range, 60_000_000_000, AggFn::Avg);
            assert_eq!(out[0].1, a, "threads={threads}");
            assert!(out[1].1.iter().all(|r| r.value == 300.0));
        }
    }

    #[test]
    fn wide_fan_in_is_thread_count_invariant() {
        // 37 sensors (5 chunks, one ragged): every thread count gives the
        // same bits, and chunking never changes which blocks decode
        let cluster = Arc::new(StoreCluster::single());
        let sids: Vec<(dcdb_sid::SensorId, f64)> = (0..37u16)
            .map(|n| (dcdb_sid::SensorId::from_fields(&[9, n + 1]).unwrap(), 1.0))
            .collect();
        for (i, &(s, _)) in sids.iter().enumerate() {
            for ts in 0..700i64 {
                cluster.insert(s, ts * 1_000_000_000, (i as f64).mul_add(0.1, ts as f64).sin());
            }
        }
        cluster.maintain();
        let range = TimeRange::new(0, 700_000_000_000);
        for agg in [AggFn::Avg, AggFn::Sum, AggFn::Stddev, AggFn::Quantile(0.9), AggFn::Rate] {
            let base = cluster.blocks_decoded();
            let serial = fan_in(
                &QueryEngine::new(Arc::clone(&cluster), 1),
                &sids,
                range,
                60_000_000_000,
                agg,
            );
            let serial_decodes = cluster.blocks_decoded() - base;
            for threads in [2, 4, 16] {
                let base = cluster.blocks_decoded();
                let engine = QueryEngine::new(Arc::clone(&cluster), threads);
                let parallel = fan_in(&engine, &sids, range, 60_000_000_000, agg);
                assert_eq!(cluster.blocks_decoded() - base, serial_decodes, "threads={threads}");
                assert_eq!(serial.len(), parallel.len());
                for (a, b) in serial.iter().zip(&parallel) {
                    assert_eq!(a.ts, b.ts);
                    assert_eq!(
                        a.value.to_bits(),
                        b.value.to_bits(),
                        "{agg} diverged at threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_wide_group_parallelises_like_many_groups() {
        // one group of 12 sensors → 2 chunks: grouped evaluation with any
        // thread count equals the plain fan-in over the same members
        let cluster = Arc::new(StoreCluster::single());
        let sids: Vec<(dcdb_sid::SensorId, f64)> = (0..12u16)
            .map(|n| (dcdb_sid::SensorId::from_fields(&[8, n + 1]).unwrap(), 1.0))
            .collect();
        for (i, &(s, _)) in sids.iter().enumerate() {
            for ts in 0..300i64 {
                cluster.insert(s, ts * 1_000_000_000, 100.0 + i as f64 + (ts % 7) as f64);
            }
        }
        cluster.maintain();
        let range = TimeRange::new(0, 300_000_000_000);
        let group = vec![SensorGroup { key: "rack", sids: sids.clone() }];
        let direct = fan_in(
            &QueryEngine::new(Arc::clone(&cluster), 0),
            &sids,
            range,
            60_000_000_000,
            AggFn::Avg,
        );
        for threads in [1, 4] {
            let engine = QueryEngine::new(Arc::clone(&cluster), threads);
            let (grouped, _) =
                engine.aggregate(group.clone(), range, 60_000_000_000, AggFn::Avg, false);
            assert_eq!(grouped.len(), 1);
            assert_eq!(grouped[0].1, direct, "threads={threads}");
        }
    }

    #[test]
    fn traced_execution_is_bit_identical_and_records_stages() {
        let (engine, sids) = engine_with_data();
        let range = TimeRange::new(0, 600_000_000_000);
        let groups = vec![
            SensorGroup { key: "a", sids: vec![(sids[0], 1.0), (sids[1], 1.0)] },
            SensorGroup { key: "b", sids: vec![(sids[2], 1.0)] },
        ];
        let engine = QueryEngine::new(Arc::clone(&engine.cluster), 4);
        let (plain, none) =
            engine.aggregate(groups.clone(), range, 60_000_000_000, AggFn::Stddev, false);
        assert!(none.is_none());
        let (traced, span) = engine.aggregate(groups, range, 60_000_000_000, AggFn::Stddev, true);
        let span = span.expect("a traced call returns its span tree");
        assert_eq!(plain.len(), traced.len());
        for ((ka, a), (kb, b)) in plain.iter().zip(&traced) {
            assert_eq!(ka, kb);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.ts, y.ts);
                assert_eq!(x.value.to_bits(), y.value.to_bits());
            }
        }
        // span tree: execute → [fold → chunk:*, merge]
        assert_eq!(span.stage, "execute");
        assert_eq!(span.children.len(), 2);
        let fold = &span.children[0];
        assert_eq!(fold.stage, "fold");
        assert_eq!(fold.get("groups"), Some(2));
        assert_eq!(fold.children.len(), 2, "one chunk per group here");
        assert_eq!(fold.children[0].get("sensors"), Some(2));
        assert_eq!(span.children[1].stage, "merge");
        assert!(span.render().contains("chunk:0"));
    }

    #[test]
    fn narrow_aggregate_decodes_few_blocks() {
        let cluster = Arc::new(StoreCluster::single());
        let s = sid("/a/b/c");
        for ts in 0..20_480 {
            cluster.insert(s, ts, ts as f64);
        }
        cluster.maintain(); // 40 blocks of 512
        let engine = QueryEngine::new(Arc::clone(&cluster), 0);
        assert_eq!(cluster.blocks_decoded(), 0);
        let out = fan_in(&engine, &[(s, 1.0)], TimeRange::new(1000, 2000), 100, AggFn::Avg);
        assert_eq!(out.len(), 10);
        let decoded = cluster.blocks_decoded();
        assert!(
            decoded <= 3,
            "a 5% range over 40 blocks should decode ≤ 3 blocks, decoded {decoded}"
        );
    }
}
