//! The distributed layer: several [`StoreNode`]s behind a partition map.
//!
//! Cassandra distributes one database over multiple servers for redundancy,
//! scalability or both; DCDB controls the distribution with hierarchical
//! SIDs as partition keys so a sensor sub-tree maps to a particular server
//! (paper §4.3).  This logic lives in libDCDB in the original and is fully
//! transparent to Collect Agents and users — same here: the cluster exposes
//! the plain insert/query API of a single node.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcdb_obs::{Kind, Registry};
use dcdb_sid::{PartitionMap, SensorId};

use crate::cache::{BlockCache, CacheStats};
use crate::iter::SeriesIter;
use crate::maintenance::{MaintenancePool, MaintenanceSnapshot};
use crate::node::{NodeConfig, NodeInstruments, SeriesSnapshot, StoreNode};
use crate::reading::{Reading, TimeRange, Timestamp};

/// Cluster-wide counters.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Inserts routed to their primary (nearest) node.
    pub local_writes: AtomicU64,
    /// Replica writes (beyond the primary).
    pub replica_writes: AtomicU64,
}

/// A cluster of storage nodes.
pub struct StoreCluster {
    nodes: Vec<Arc<StoreNode>>,
    partition: PartitionMap,
    replication: usize,
    stats: Arc<ClusterStats>,
    /// The decoded-block cache shared by every node (one process-wide
    /// reading budget), when [`NodeConfig::block_cache_readings`] is set.
    cache: Option<Arc<BlockCache>>,
    /// The background maintenance pool shared by every node (one worker
    /// budget per cluster), when [`NodeConfig::maintenance_threads`] is set.
    pool: Option<Arc<MaintenancePool>>,
    /// The cluster's metrics registry: latency histograms fed by the nodes'
    /// hot paths plus callback counters scraping the pre-existing node /
    /// cache stats.  Nodes never hold this `Arc` back (the callbacks
    /// capture node `Arc`s, so that would cycle and leak the pool).
    metrics: Arc<Registry>,
}

impl StoreCluster {
    /// Build a cluster of `n` nodes with the given partition map and
    /// replication factor (1 = no replicas).  A non-zero
    /// [`NodeConfig::block_cache_readings`] allocates **one** decoded-block
    /// cache of that budget, shared by all nodes; a non-zero
    /// [`NodeConfig::maintenance_threads`] likewise allocates **one**
    /// background maintenance pool that owns flush and compaction for the
    /// whole cluster.
    pub fn new(node_cfg: NodeConfig, partition: PartitionMap, replication: usize) -> StoreCluster {
        let n = partition.nodes();
        assert!(n > 0, "cluster needs at least one node");
        let replication = replication.clamp(1, n);
        let cache = (node_cfg.block_cache_readings > 0)
            .then(|| Arc::new(BlockCache::new(node_cfg.block_cache_readings)));
        let pool = (node_cfg.maintenance_threads > 0).then(|| {
            MaintenancePool::start(
                node_cfg.maintenance_threads,
                crate::node::tick_interval(&node_cfg),
            )
        });
        let metrics = Arc::new(Registry::new());
        let instruments = NodeInstruments::from_registry(&metrics);
        let nodes: Vec<Arc<StoreNode>> = (0..n)
            .map(|_| {
                Arc::new(StoreNode::with_instruments(
                    node_cfg.clone(),
                    cache.clone(),
                    pool.clone(),
                    instruments.clone(),
                ))
            })
            .collect();
        let stats = Arc::new(ClusterStats::default());
        register_cluster_metrics(&metrics, &nodes, &stats, cache.as_ref(), pool.as_ref());
        StoreCluster { nodes, partition, replication, stats, cache, pool, metrics }
    }

    /// The cluster's metrics registry — the single source every exposition
    /// surface (`/metrics`, `/stats`, `_dcdb/` self-sensors) scrapes.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Convenience: a single-node cluster with defaults (tests, quickstart).
    pub fn single() -> StoreCluster {
        StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(1, 3), 1)
    }

    /// Convenience: `n` nodes, prefix partitioning at `depth`, RF 1.
    pub fn prefix_cluster(n: usize, depth: usize) -> StoreCluster {
        StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(n, depth), 1)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Direct access to a node (evaluation harness / tools).
    pub fn node(&self, i: usize) -> &Arc<StoreNode> {
        &self.nodes[i]
    }

    /// The index of the primary node owning `sid`.
    pub fn primary_for(&self, sid: SensorId) -> usize {
        self.partition.node_for(sid)
    }

    fn replica_indices(&self, sid: SensorId) -> impl Iterator<Item = usize> + '_ {
        let primary = self.primary_for(sid);
        let n = self.nodes.len();
        (0..self.replication).map(move |k| (primary + k) % n)
    }

    /// Insert one reading (fans out to `replication` nodes).
    pub fn insert(&self, sid: SensorId, ts: Timestamp, value: f64) {
        for (k, idx) in self.replica_indices(sid).enumerate() {
            self.nodes[idx].insert(sid, ts, value);
            if k == 0 {
                self.stats.local_writes.fetch_add(1, Ordering::Relaxed);
            } else {
                self.stats.replica_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Insert a batch for one sensor: [`StoreCluster::insert_many`] with one
    /// entry.
    pub fn insert_batch(&self, sid: SensorId, readings: &[Reading]) {
        self.insert_many(&[(sid, readings)]);
    }

    /// Insert the readings of several sensors, in order, each on its
    /// `replication` nodes: one [`StoreNode::insert_many`] per node that
    /// holds any of them, so each node's memtable lock is taken once.
    pub fn insert_many(&self, entries: &[(SensorId, &[Reading])]) {
        let (mut local, mut replica) = (0, 0);
        let mut per_node: Vec<Vec<(SensorId, &[Reading])>> = vec![Vec::new(); self.nodes.len()];
        for &(sid, readings) in entries {
            for (k, idx) in self.replica_indices(sid).enumerate() {
                per_node[idx].push((sid, readings));
                let n = readings.len() as u64;
                if k == 0 {
                    local += n;
                } else {
                    replica += n;
                }
            }
        }
        for (node, entries) in self.nodes.iter().zip(&per_node) {
            if !entries.is_empty() {
                node.insert_many(entries);
            }
        }
        self.stats.local_writes.fetch_add(local, Ordering::Relaxed);
        self.stats.replica_writes.fetch_add(replica, Ordering::Relaxed);
    }

    /// Query a sensor's readings in `range` from its primary node: the
    /// snapshot's [`SeriesIter`], collected.
    pub fn query(&self, sid: SensorId, range: TimeRange) -> Vec<Reading> {
        SeriesIter::new(self.series_snapshot(sid, range), range).collect()
    }

    /// Latest reading of a sensor.
    pub fn latest(&self, sid: SensorId) -> Option<Reading> {
        self.nodes[self.primary_for(sid)].latest(sid)
    }

    /// Capture a pushdown [`SeriesSnapshot`] of `sid` from its primary node
    /// (see [`StoreNode::series_snapshot`]).
    pub fn series_snapshot(&self, sid: SensorId, range: TimeRange) -> SeriesSnapshot {
        self.nodes[self.primary_for(sid)].series_snapshot(sid, range)
    }

    /// The cluster's routing table.
    pub fn partition_map(&self) -> &PartitionMap {
        &self.partition
    }

    /// Compressed blocks decoded by queries across all nodes (cache misses
    /// only when a block cache is configured).
    pub fn blocks_decoded(&self) -> u64 {
        self.nodes.iter().map(|n| n.blocks_decoded()).sum()
    }

    /// Blocks that failed their checksummed decode across all nodes.
    pub fn blocks_corrupt(&self) -> u64 {
        self.nodes.iter().map(|n| n.blocks_corrupt()).sum()
    }

    /// The shared decoded-block cache, when one is configured.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
    }

    /// Counters of the shared decoded-block cache (all-zero stats when
    /// caching is disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Total compressed blocks held across all nodes.
    pub fn block_count(&self) -> usize {
        self.nodes.iter().map(|n| n.block_count()).sum()
    }

    /// Delete a sensor's readings in `range` on all replicas.
    pub fn delete_range(&self, sid: SensorId, range: TimeRange) {
        for idx in self.replica_indices(sid).collect::<Vec<_>>() {
            self.nodes[idx].delete_range(sid, range);
        }
    }

    /// Delete all data older than `cutoff` on every node.
    pub fn delete_all_before(&self, cutoff: Timestamp) {
        for n in &self.nodes {
            n.delete_all_before(cutoff);
        }
    }

    /// Flush and compact every node, synchronously — after this call every
    /// reading sits in (at most) one merged SSTable per node, whatever the
    /// maintenance mode.
    pub fn maintain(&self) {
        for n in &self.nodes {
            n.flush();
            n.compact();
        }
    }

    /// Block until every maintenance job handed to the background pool has
    /// completed (no-op in synchronous mode).  Unlike [`Self::maintain`]
    /// this forces nothing: it only waits out in-flight work.
    pub fn quiesce(&self) {
        if let Some(pool) = &self.pool {
            pool.wait_idle();
        }
    }

    /// The cluster's shared background maintenance pool, when configured.
    pub fn maintenance_pool(&self) -> Option<&Arc<MaintenancePool>> {
        self.pool.as_ref()
    }

    /// Aggregated maintenance counters across all nodes (stalls, pending
    /// flushes, merge durations, most recent flush).
    pub fn maintenance_stats(&self) -> MaintenanceSnapshot {
        let mut total = MaintenanceSnapshot::default();
        for n in &self.nodes {
            total.merge(&n.maintenance_stats());
        }
        total
    }

    /// Advance "now" on every node (TTL base).
    pub fn set_now(&self, ts: Timestamp) {
        for n in &self.nodes {
            n.set_now(ts);
        }
    }

    /// Advance "now" monotonically on every node — the ingest-path variant
    /// of [`Self::set_now`]: concurrent batches with out-of-order
    /// timestamps never move the TTL horizon backwards.
    pub fn advance_now(&self, ts: Timestamp) {
        for n in &self.nodes {
            n.advance_now(ts);
        }
    }

    /// Total entries stored across all nodes.
    pub fn total_entries(&self) -> usize {
        self.nodes.iter().map(|n| n.approx_entries()).sum()
    }

    /// Cluster counters.
    pub fn stats(&self) -> &ClusterStats {
        self.stats.as_ref()
    }
}

/// Join the cluster's pre-existing counters to the registry as scrape-time
/// callbacks.  Every callback reads the same atomics the legacy accessors
/// (`stats()`, `cache_stats()`, `maintenance_stats()`, `blocks_decoded()`)
/// read, so `/stats` and `/metrics` agree by construction.
fn register_cluster_metrics(
    reg: &Registry,
    nodes: &[Arc<StoreNode>],
    stats: &Arc<ClusterStats>,
    cache: Option<&Arc<BlockCache>>,
    pool: Option<&Arc<MaintenancePool>>,
) {
    let sum = |reg: &Registry, name: &str, kind: Kind, f: fn(&StoreNode) -> u64| {
        let nodes: Vec<Arc<StoreNode>> = nodes.to_vec();
        reg.func(name, kind, move || nodes.iter().map(|n| f(n)).sum());
    };
    sum(reg, "dcdb_inserts_total", Kind::Counter, |n| n.stats().inserts.load(Ordering::Relaxed));
    sum(reg, "dcdb_queries_total", Kind::Counter, |n| n.stats().queries.load(Ordering::Relaxed));
    sum(reg, "dcdb_flushes_total", Kind::Counter, |n| n.stats().flushes.load(Ordering::Relaxed));
    sum(reg, "dcdb_compactions_total", Kind::Counter, |n| {
        n.stats().compactions.load(Ordering::Relaxed)
    });
    sum(reg, "dcdb_compactions_coalesced_total", Kind::Counter, |n| {
        n.stats().compactions_coalesced.load(Ordering::Relaxed)
    });
    sum(reg, "dcdb_compactions_aborted_total", Kind::Counter, |n| {
        n.stats().compactions_aborted.load(Ordering::Relaxed)
    });
    sum(reg, "dcdb_stalls_total", Kind::Counter, |n| n.stats().stalls.load(Ordering::Relaxed));
    sum(reg, "dcdb_blocks_decoded_total", Kind::Counter, StoreNode::blocks_decoded);
    sum(reg, "dcdb_readings_decoded_total", Kind::Counter, StoreNode::readings_decoded);
    sum(reg, "dcdb_blocks_corrupt_total", Kind::Counter, StoreNode::blocks_corrupt);
    sum(reg, "dcdb_blocks_held", Kind::Gauge, |n| n.block_count() as u64);
    sum(reg, "dcdb_entries_held", Kind::Gauge, |n| n.approx_entries() as u64);
    sum(reg, "dcdb_pending_flushes", Kind::Gauge, |n| n.maintenance_stats().pending_flushes);
    {
        // the journal's own throughput counters: the callbacks capture only
        // the journal Arc (not the registry), so no cycle forms
        let j = reg.events();
        reg.func("dcdb_events_total", Kind::Counter, move || j.total_recorded());
        let j = reg.events();
        reg.func("dcdb_events_dropped_total", Kind::Counter, move || j.dropped());
    }
    {
        let s = Arc::clone(stats);
        reg.func("dcdb_local_writes_total", Kind::Counter, move || {
            s.local_writes.load(Ordering::Relaxed)
        });
        let s = Arc::clone(stats);
        reg.func("dcdb_replica_writes_total", Kind::Counter, move || {
            s.replica_writes.load(Ordering::Relaxed)
        });
    }
    if let Some(cache) = cache {
        // the cache's counters are obs-native: register the counters
        // themselves (same atomics) rather than callbacks
        for (suffix, counter) in cache.counters() {
            let c = Arc::clone(&counter);
            reg.func(&format!("dcdb_cache_{suffix}_total"), Kind::Counter, move || c.get());
        }
        let c = Arc::clone(cache);
        reg.func("dcdb_cache_used_readings", Kind::Gauge, move || c.used_readings() as u64);
        let c = Arc::clone(cache);
        reg.func("dcdb_cache_capacity_readings", Kind::Gauge, move || c.capacity_readings() as u64);
    }
    if let Some(pool) = pool {
        let p = Arc::clone(pool);
        reg.func("dcdb_maintenance_threads", Kind::Gauge, move || p.threads() as u64);
        let p = Arc::clone(pool);
        reg.func("dcdb_maintenance_ticks_total", Kind::Counter, move || p.ticks());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(t: &str) -> SensorId {
        SensorId::from_topic(t).unwrap()
    }

    #[test]
    fn single_node_roundtrip() {
        let c = StoreCluster::single();
        let s = sid("/a/b/c");
        c.insert(s, 10, 1.5);
        c.insert(s, 20, 2.5);
        let got = c.query(s, TimeRange::new(0, 100));
        assert_eq!(got.len(), 2);
        assert_eq!(c.latest(s).unwrap().value, 2.5);
    }

    #[test]
    fn subtree_locality() {
        let c = StoreCluster::prefix_cluster(4, 3);
        // all sensors of one node-subtree land on the same store node
        let owner = c.primary_for(sid("/sys/rack0/node0/power"));
        for s in ["temp", "energy", "instr"] {
            assert_eq!(c.primary_for(sid(&format!("/sys/rack0/node0/{s}"))), owner);
        }
    }

    #[test]
    fn data_actually_distributed() {
        let c = StoreCluster::prefix_cluster(4, 3);
        for node in 0..32 {
            let s = sid(&format!("/sys/rack0/node{node}/power"));
            for ts in 0..10 {
                c.insert(s, ts, 0.0);
            }
        }
        let per_node: Vec<usize> = (0..4).map(|i| c.node(i).approx_entries()).collect();
        assert_eq!(per_node.iter().sum::<usize>(), 320);
        assert!(per_node.iter().filter(|&&n| n > 0).count() >= 2, "{per_node:?}");
        // queries still find everything
        for node in 0..32 {
            let s = sid(&format!("/sys/rack0/node{node}/power"));
            assert_eq!(c.query(s, TimeRange::new(0, 100)).len(), 10);
        }
    }

    #[test]
    fn replication_writes_copies() {
        let c = StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(3, 2), 2);
        let s = sid("/a/b/c");
        c.insert(s, 1, 1.0);
        assert_eq!(c.stats().local_writes.load(Ordering::Relaxed), 1);
        assert_eq!(c.stats().replica_writes.load(Ordering::Relaxed), 1);
        assert_eq!(c.total_entries(), 2);
        // primary failure simulation: replica holds the data
        let primary = c.primary_for(s);
        let replica = (primary + 1) % 3;
        assert_eq!(c.node(replica).query_range(s, TimeRange::all()).len(), 1);
    }

    #[test]
    fn delete_and_maintain() {
        let c = StoreCluster::prefix_cluster(2, 2);
        let s = sid("/x/y/z");
        for ts in 0..10 {
            c.insert(s, ts, 0.0);
        }
        c.delete_range(s, TimeRange::new(0, 5));
        assert_eq!(c.query(s, TimeRange::new(0, 100)).len(), 5);
        c.maintain();
        assert_eq!(c.total_entries(), 5);
    }

    #[test]
    fn metrics_registry_agrees_with_legacy_accessors() {
        let cfg = NodeConfig {
            memtable_flush_entries: 64,
            block_cache_readings: 4096,
            ..NodeConfig::default()
        };
        let c = StoreCluster::new(cfg, PartitionMap::prefix(2, 2), 1);
        let s = sid("/m/e/t");
        let batch: Vec<Reading> = (0..200).map(|i| Reading::new(i, i as f64)).collect();
        c.insert_batch(s, &batch);
        c.maintain();
        c.query(s, TimeRange::new(0, 1000));
        c.query(s, TimeRange::new(0, 1000));

        let snap = c.metrics().snapshot();
        let counter = |name: &str| match snap.get(name) {
            Some(dcdb_obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: expected counter, got {other:?}"),
        };
        // callback instruments read the very atomics the legacy accessors read
        assert_eq!(counter("dcdb_inserts_total"), 200);
        assert_eq!(counter("dcdb_queries_total"), 2);
        let ms = c.maintenance_stats();
        assert_eq!(counter("dcdb_flushes_total"), ms.flushes);
        assert_eq!(counter("dcdb_compactions_total"), ms.compactions);
        assert_eq!(counter("dcdb_blocks_decoded_total"), c.blocks_decoded());
        let readings: u64 = (0..2).map(|i| c.node(i).readings_decoded()).sum();
        assert_eq!(counter("dcdb_readings_decoded_total"), readings);
        let cs = c.cache_stats();
        assert_eq!(counter("dcdb_cache_hits_total"), cs.hits);
        assert_eq!(counter("dcdb_cache_misses_total"), cs.misses);
        // the batch-insert latency histogram saw the insert
        match snap.get("dcdb_insert_latency_ns") {
            Some(dcdb_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, 1),
            other => panic!("expected histogram, got {other:?}"),
        }
        // flush histogram count matches the flush counter
        match snap.get("dcdb_flush_ns") {
            Some(dcdb_obs::MetricValue::Histogram(h)) => assert_eq!(h.count, ms.flushes),
            other => panic!("expected histogram, got {other:?}"),
        }
        // and the Prometheus rendering covers the core families
        let text = c.metrics().render_prometheus();
        for family in
            ["dcdb_inserts_total", "dcdb_cache_hits_total", "dcdb_flush_ns", "dcdb_queries_total"]
        {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }

    #[test]
    fn batch_insert() {
        let c = StoreCluster::single();
        let s = sid("/b/a/t");
        let batch: Vec<Reading> = (0..100).map(|i| Reading::new(i, i as f64)).collect();
        c.insert_batch(s, &batch);
        assert_eq!(c.query(s, TimeRange::new(0, 1000)).len(), 100);
    }
}
