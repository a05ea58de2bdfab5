//! # dcdb-tools
//!
//! The DCDB command line tools (paper §5.2), built on libDCDB:
//!
//! * `dcdbquery` — query sensor data for a time period in CSV form, with
//!   integral/derivative analysis operations,
//! * `dcdbconfig` — database management: list sensors, set units/scaling
//!   factors, define virtual sensors, delete old data, compact,
//! * `csvimport` — bulk-import CSV data into Storage Backends,
//! * `dcdbpusher` — run a Pusher (tester plugin or the host's real
//!   `/proc`) against an MQTT broker,
//! * `dcdbcollectagent` — run a Collect Agent: MQTT broker + storage +
//!   REST API.
//!
//! Tools exchange persistent state through a *database directory* holding
//! the store's SSTables plus the topic registry (`topics.list`, one
//! `<sid-hex> <topic>` line per sensor).  Every
//! cluster node persists its runs under `node<N>/`; `cluster.list` records
//! the node count and partitioning depth so re-opening reconstructs the
//! same routing.  That is the only layout: runs without a `cluster.list`
//! are rejected rather than guessed at.

use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

use dcdb_core::SensorDb;
use dcdb_sid::{PartitionMap, SensorId, TopicRegistry};
use dcdb_store::{NodeConfig, StoreCluster};

/// Partitioning depth of a database created by opening a missing or empty
/// directory.
const DEFAULT_PREFIX_DEPTH: usize = 3;

/// Persist every node of `store` under `dir/node<N>/` and record the
/// cluster shape in `dir/cluster.list` (node count plus partitioner —
/// `prefix-depth D` or `partitioner random`), returning the number of
/// SSTable runs written.  Explicit sub-tree pins are not recorded; a
/// reloaded cluster uses the fallback partitioner only.
///
/// # Errors
/// Propagates I/O failures.
pub fn save_cluster(store: &StoreCluster, dir: &Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    // settle background maintenance first so no frozen memtable or queued
    // merge is mid-flight while runs are written
    store.quiesce();
    let mut runs = 0;
    for i in 0..store.node_count() {
        let node = store.node(i);
        node.flush();
        runs += node.persist(&dir.join(format!("node{i}")))?;
    }
    let partitioner = match store.partition_map().prefix_depth() {
        Some(depth) => format!("prefix-depth {depth}"),
        None => "partitioner random".to_string(),
    };
    std::fs::write(
        dir.join("cluster.list"),
        format!("nodes {}\n{partitioner}\n", store.node_count()),
    )?;
    Ok(runs)
}

/// Rebuild the cluster persisted by [`save_cluster`] and load every node's
/// runs.
///
/// # Errors
/// Propagates I/O and format failures; `InvalidData` when the directory
/// holds `*.sst` files or `node*/` directories but no `cluster.list`.  A
/// missing (or run-less) directory yields an empty single-node cluster.
pub fn load_cluster(dir: &Path) -> std::io::Result<Arc<StoreCluster>> {
    load_cluster_with(dir, NodeConfig::default())
}

/// [`load_cluster`] with an explicit per-node configuration — how the CLI
/// knobs (`--cache-mb` → [`NodeConfig::block_cache_readings`]) reach a
/// database opened from disk.
///
/// # Errors
/// As [`load_cluster`].
pub fn load_cluster_with(dir: &Path, node_cfg: NodeConfig) -> std::io::Result<Arc<StoreCluster>> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let mut nodes = 1usize;
    let mut depth = Some(DEFAULT_PREFIX_DEPTH);
    let meta = dir.join("cluster.list");
    if meta.exists() {
        for line in std::fs::read_to_string(&meta)?.lines() {
            match line.split_once(' ') {
                Some(("nodes", n)) => {
                    nodes = n.trim().parse().map_err(|_| bad("bad node count in cluster.list"))?;
                }
                Some(("prefix-depth", d)) => {
                    depth = Some(
                        d.trim().parse().map_err(|_| bad("bad prefix-depth in cluster.list"))?,
                    );
                }
                Some(("partitioner", "random")) => depth = None,
                _ => {}
            }
        }
    } else if dir.exists() {
        // runs whose routing nobody recorded: loading them onto a guessed
        // cluster shape could put them on the wrong node
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let is_run = path.extension().is_some_and(|x| x == "sst");
            let is_node_dir = path.is_dir()
                && path.file_name().is_some_and(|n| n.to_string_lossy().starts_with("node"));
            if is_run || is_node_dir {
                return Err(bad(&format!(
                    "{} holds SSTable runs but no cluster.list",
                    dir.display()
                )));
            }
        }
    }
    let map = match depth {
        Some(depth) => PartitionMap::prefix(nodes.max(1), depth),
        None => PartitionMap::random(nodes.max(1)),
    };
    let store = Arc::new(StoreCluster::new(node_cfg, map, 1));
    for i in 0..store.node_count() {
        let node_dir = dir.join(format!("node{i}"));
        if node_dir.exists() {
            store.node(i).load(&node_dir)?;
        }
    }
    Ok(store)
}

/// Open (or create) a database directory.
///
/// Layout: `<dir>/topics.list` (one `<sid-hex> <topic>` line per sensor),
/// `<dir>/node<N>/*.sst` (per-node runs) and `<dir>/cluster.list` (cluster
/// shape).  Every topic gets back exactly the SID it was saved with
/// ([`TopicRegistry::restore`]), so it reads its own runs whatever hash
/// collisions its registration order once settled.
///
/// # Errors
/// Propagates I/O and format failures (see [`load_cluster`]);
/// `InvalidData` for a `topics.list` line that does not parse, or whose
/// topic or SID an earlier line already named.  A missing directory
/// yields an empty database.
pub fn open_db(dir: &Path) -> std::io::Result<Arc<SensorDb>> {
    open_db_with(dir, NodeConfig::default())
}

/// [`open_db`] with an explicit per-node configuration (decoded-block
/// cache budget, flush/compaction tuning).
///
/// # Errors
/// As [`open_db`].
pub fn open_db_with(dir: &Path, node_cfg: NodeConfig) -> std::io::Result<Arc<SensorDb>> {
    let registry = Arc::new(TopicRegistry::new());
    let topics_path = dir.join("topics.list");
    if topics_path.exists() {
        let file = std::fs::File::open(&topics_path)?;
        for (i, line) in std::io::BufReader::new(file).lines().enumerate() {
            let line = line?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let bad = |msg: String| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("topics.list line {}: {msg}", i + 1),
                )
            };
            let (sid, topic) = line
                .split_once(' ')
                .and_then(|(hex, topic)| Some((SensorId::from_hex(hex)?, topic)))
                .ok_or_else(|| bad(format!("expected `<sid-hex> <topic>`, got {line:?}")))?;
            registry.restore(topic, sid).map_err(|e| bad(e.to_string()))?;
        }
    }
    let store = load_cluster_with(dir, node_cfg)?;
    Ok(SensorDb::new(store, registry))
}

/// Readings a `--cache-mb` budget buys: decoded readings cost 16 bytes
/// (`i64` timestamp + `f64` value).
pub fn cache_mb_to_readings(mb: usize) -> usize {
    mb * (1024 * 1024) / 16
}

/// Build a [`NodeConfig`] from the shared CLI knobs:
/// `--cache-mb MB` (decoded-block cache budget), `--maintenance-threads N`
/// (background flush/compaction workers, default 1, 0 = synchronous) and
/// `--flush-interval-s S` (periodic time-based flush, 0 = size-only).
pub fn node_config_from_args(args: &Args) -> NodeConfig {
    let cache_mb: usize = args.get("cache-mb").and_then(|s| s.parse().ok()).unwrap_or(0);
    let maintenance_threads: usize =
        args.get("maintenance-threads").and_then(|s| s.parse().ok()).unwrap_or(1);
    let flush_interval_s: u64 =
        args.get("flush-interval-s").and_then(|s| s.parse().ok()).unwrap_or(0);
    NodeConfig {
        block_cache_readings: cache_mb_to_readings(cache_mb),
        maintenance_threads,
        flush_interval_ns: flush_interval_s.saturating_mul(1_000_000_000) as i64,
        ..Default::default()
    }
}

/// Persist the database directory read by [`open_db`]: the topic
/// registry with each topic's SID, plus every cluster node's runs.
/// Returns the number of SSTable runs written.
///
/// # Errors
/// Propagates I/O failures.
pub fn save_db(db: &Arc<SensorDb>, dir: &Path) -> std::io::Result<usize> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(dir.join("topics.list"))?);
    for (topic, sid) in db.registry().sids_under("/") {
        writeln!(f, "{} {topic}", sid.to_hex())?;
    }
    f.flush()?;
    save_cluster(db.store(), dir)
}

/// On-disk footprint of a database directory versus the fixed-width
/// baseline, plus the decoded-block cache state, for the CLI `--sizes`
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbSizes {
    /// Readings stored (memtable + SSTables).
    pub readings: u64,
    /// Bytes of `.sst` files on disk.
    pub stored_bytes: u64,
    /// Bytes the same readings cost uncompressed
    /// ([`dcdb_store::reading::RAW_READING_BYTES`] each).
    pub raw_bytes: u64,
    /// Decoded-block cache counters (capacity 0 when caching is off).
    pub cache: dcdb_store::CacheStats,
    /// Background-maintenance counters (threads 0 when maintenance is
    /// synchronous).
    pub maintenance: dcdb_store::MaintenanceSnapshot,
}

impl DbSizes {
    /// Compression ratio versus fixed-width tuples (1.0 when nothing is stored).
    pub fn ratio(&self) -> f64 {
        if self.stored_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.stored_bytes as f64
        }
    }

    /// One- or two-line human-readable report (the cache line appears only
    /// when a block cache is configured).
    pub fn render(&self) -> String {
        let mut out = format!(
            "stored: {} readings in {} bytes on disk (fixed-width: {} bytes, {:.1}x compression)",
            self.readings,
            self.stored_bytes,
            self.raw_bytes,
            self.ratio()
        );
        if self.cache.capacity_readings > 0 {
            out.push_str(&format!(
                "\nblock cache: {}/{} readings used ({} KiB of {} KiB), \
                 {} hits / {} misses ({:.0}% hit rate), {} evictions",
                self.cache.used_readings,
                self.cache.capacity_readings,
                self.cache.used_readings * 16 / 1024,
                self.cache.capacity_readings * 16 / 1024,
                self.cache.hits,
                self.cache.misses,
                self.cache.hit_rate() * 100.0,
                self.cache.evictions,
            ));
        }
        if self.maintenance.threads > 0 {
            let m = &self.maintenance;
            out.push_str(&format!(
                "\nmaintenance: {} threads, {} flushes / {} compactions \
                 ({} coalesced, {:.0} ms merging), {} pending flushes, \
                 {} write stalls ({:.0} ms)",
                m.threads,
                m.flushes,
                m.compactions,
                m.compactions_coalesced,
                m.compaction_ns as f64 / 1e6,
                m.pending_flushes,
                m.stalls,
                m.stall_ns as f64 / 1e6,
            ));
        }
        out
    }
}

/// Measure a database directory written by [`save_db`], summing every
/// node's runs.
///
/// # Errors
/// Propagates I/O failures; missing directories count as empty.
pub fn db_sizes(db: &Arc<SensorDb>, dir: &Path) -> std::io::Result<DbSizes> {
    fn sst_bytes(dir: &Path) -> std::io::Result<u64> {
        let mut total = 0u64;
        if dir.exists() {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                if entry.path().extension().is_some_and(|e| e == "sst") {
                    total += entry.metadata()?.len();
                }
            }
        }
        Ok(total)
    }
    let mut stored_bytes = 0;
    for i in 0..db.store().node_count() {
        stored_bytes += sst_bytes(&dir.join(format!("node{i}")))?;
    }
    let readings = db.store().total_entries() as u64;
    Ok(DbSizes {
        readings,
        stored_bytes,
        raw_bytes: readings * dcdb_store::reading::RAW_READING_BYTES as u64,
        cache: db.store().cache_stats(),
        maintenance: db.store().maintenance_stats(),
    })
}

/// Minimal `--flag value` argument parser shared by the binaries.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Capture the process arguments (without `argv[0]`).
    pub fn from_env() -> Args {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Build from a slice (tests).
    pub fn from_slice(args: &[&str]) -> Args {
        Args { raw: args.iter().map(|s| s.to_string()).collect() }
    }

    /// Value of `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Presence of a boolean `--name` flag.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// Positional arguments (not starting with `--` and not a flag value).
    pub fn positional(&self) -> Vec<&str> {
        self.positional_with_bools(&[])
    }

    /// Positional arguments when `bool_flags` take no value — e.g.
    /// `dcdbquery --sizes <topic>` must not treat the topic as the value
    /// of `--sizes`.  Every other flag consumes the following non-flag
    /// token.
    pub fn positional_with_bools(&self, bool_flags: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut skip = false;
        for (i, a) in self.raw.iter().enumerate() {
            if skip {
                skip = false;
                continue;
            }
            if let Some(name) = a.strip_prefix("--") {
                // value-taking flags consume a following non-flag token
                if !bool_flags.contains(&name)
                    && self.raw.get(i + 1).is_some_and(|n| !n.starts_with("--"))
                {
                    skip = true;
                }
                continue;
            }
            out.push(a.as_str());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_store::reading::{Reading, TimeRange};

    #[test]
    fn bool_flags_do_not_consume_positionals() {
        let a = Args::from_slice(&["--db", "/tmp/x", "--sizes", "/t1", "/t2"]);
        // without the hint, /t1 is mistaken for --sizes' value
        assert_eq!(a.positional(), vec!["/t2"]);
        assert_eq!(a.positional_with_bools(&["sizes"]), vec!["/t1", "/t2"]);
        assert!(a.has("sizes"));
        assert_eq!(a.get("db"), Some("/tmp/x"));
    }

    #[test]
    fn args_parsing() {
        let a = Args::from_slice(&["query", "--db", "/tmp/x", "--csv", "/a/b", "--verbose"]);
        assert_eq!(a.get("db"), Some("/tmp/x"));
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
        assert_eq!(a.positional(), vec!["query"]);
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn maintenance_runs_in_the_background_unless_asked_otherwise() {
        let threads =
            |args: &[&str]| node_config_from_args(&Args::from_slice(args)).maintenance_threads;
        assert_eq!(threads(&[]), 1, "the mode the benchmark measures is the default");
        assert_eq!(threads(&["--maintenance-threads", "0"]), 0, "synchronous stays selectable");
        assert_eq!(threads(&["--maintenance-threads", "3"]), 3);
    }

    #[test]
    fn db_roundtrip_through_directory() {
        let dir = std::env::temp_dir().join(format!("dcdb-tools-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = SensorDb::in_memory();
            db.insert("/t/a", 100, 1.5).unwrap();
            db.insert("/t/b", 200, 2.5).unwrap();
            save_db(&db, &dir).unwrap();
        }
        let db = open_db(&dir).unwrap();
        let s = db.query("/t/a", TimeRange::all()).unwrap();
        assert_eq!(s.readings.len(), 1);
        assert_eq!(s.readings[0].value, 1.5);
        assert_eq!(db.registry().len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_topic_reads_its_own_data_after_a_reload() {
        // 1 500 siblings under one node collide in their 16-bit leaf hash
        // (birthday bound), so which topic was probed to a new SID depends
        // on registration order; reverse-sorted is not the order saved
        let dir = std::env::temp_dir().join(format!("dcdb-tools-sids-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut topics: Vec<String> =
            (0..1_500).map(|i| format!("/hpc0042/rack0/node0/s{i}")).collect();
        topics.sort();
        topics.reverse();
        let value = |t: &str| t.rsplit_once("/s").unwrap().1.parse::<f64>().unwrap();
        {
            let db = SensorDb::in_memory();
            for t in &topics {
                db.insert(t, 1, value(t)).unwrap();
            }
            assert!(db.registry().collisions() > 0, "the test needs colliding topics");
            save_db(&db, &dir).unwrap();
        }
        let db = open_db(&dir).unwrap();
        let wrong: Vec<&String> = topics
            .iter()
            .filter(|t| {
                let got = db.query(t, TimeRange::all()).unwrap().readings;
                got.len() != 1 || got[0].value != value(t)
            })
            .collect();
        assert!(wrong.is_empty(), "{} topics read other data: {wrong:?}", wrong.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_shuffled_fan_in_registry_reads_back_after_a_reload() {
        // the ingest benchmark's shape: 8 pushers × 1 500 tester sensors,
        // registered in a seeded shuffled order, one distinct reading each
        let dir = std::env::temp_dir().join(format!("dcdb-tools-fanin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut topics: Vec<String> = (0..8)
            .flat_map(|k| {
                (0..1_500).map(move |i| format!("/hpc002a/rack{}/node{}/tester/t{i}", k / 2, k % 2))
            })
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..topics.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            topics.swap(i, (state % (i as u64 + 1)) as usize);
        }
        {
            let db = SensorDb::in_memory();
            for (i, t) in topics.iter().enumerate() {
                db.insert(t, 1_000 + i as i64, i as f64).unwrap();
            }
            save_db(&db, &dir).unwrap();
        }
        let db = open_db(&dir).unwrap();
        let wrong: Vec<&String> = topics
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                let got = db.query(t, TimeRange::all()).unwrap().readings;
                got != [Reading::new(1_000 + *i as i64, *i as f64)]
            })
            .map(|(_, t)| t)
            .collect();
        assert!(wrong.is_empty(), "{} topics read other data: {wrong:?}", wrong.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn contradicting_or_unparsable_topic_records_are_invalid_data() {
        let dir = std::env::temp_dir().join(format!("dcdb-tools-catalog-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (SensorId(0xa).to_hex(), SensorId(0xb).to_hex());
        let lines = [
            format!("{a} /x/a\n{a} /x/b\n"), // one SID, two topics
            format!("{a} /x/a\n{b} /x/a\n"), // one topic, two SIDs
            format!("{a} /x/a\n{a} /x/a\n"), // one record twice
            "/x/a\n".to_string(),            // a bare topic
            "zz /x/a\n".to_string(),         // not hex
            format!("{a} /x//a\n"),          // not a topic
        ];
        for text in lines {
            std::fs::write(dir.join("topics.list"), &text).unwrap();
            match open_db(&dir) {
                Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{text:?}: {e}"),
                Ok(_) => panic!("{text:?} opened"),
            }
        }
        std::fs::write(dir.join("topics.list"), format!("{a} /x/a\n\n{b} /x/b\n")).unwrap();
        let db = open_db(&dir).unwrap();
        assert_eq!(db.registry().get("/x/b"), Some(SensorId(0xb)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn self_metrics_sensors_survive_a_save_load_cycle() {
        let dir = std::env::temp_dir().join(format!("dcdb-tools-selfm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = SensorDb::in_memory();
            db.insert("/t/a", 100, 1.5).unwrap();
            assert!(db.publish_self_metrics("node0", 200) > 0);
            save_db(&db, &dir).unwrap();
        }
        // reload must accept the reserved topics recorded in topics.list
        let db = open_db(&dir).unwrap();
        let resp = db.execute(&dcdb_core::QueryRequest::subtree("/_dcdb/node0")).unwrap();
        assert!(!resp.series.is_empty());
        // user inserts under the reserved hierarchy stay rejected
        assert!(db.insert("/_dcdb/node0/fake", 1, 1.0).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_missing_dir_is_empty_db() {
        let db = open_db(Path::new("/definitely/missing/dcdb")).unwrap();
        assert_eq!(db.registry().len(), 0);
    }

    #[test]
    fn multi_node_cluster_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dcdb-tools-multi-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topics: Vec<String> =
            (0..32).map(|n| format!("/site/rack{}/node{n}/power", n % 4)).collect();
        {
            // a 4-node sharded deployment
            let store =
                Arc::new(StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(4, 3), 1));
            let registry = Arc::new(TopicRegistry::new());
            let db = SensorDb::new(store, registry);
            for t in &topics {
                for ts in 0..50i64 {
                    db.insert(t, ts * 1_000_000_000, 100.0).unwrap();
                }
            }
            // data really lives on several nodes
            let populated = (0..4).filter(|&i| db.store().node(i).approx_entries() > 0).count();
            assert!(populated >= 2, "sharding produced {populated} populated nodes");
            save_db(&db, &dir).unwrap();
        }
        // every populated node directory exists on disk
        let node_dirs = (0..4).filter(|i| dir.join(format!("node{i}")).exists()).count();
        assert!(node_dirs >= 2, "expected several node dirs, found {node_dirs}");
        assert!(dir.join("cluster.list").exists());

        // re-open: same cluster shape, every reading back
        let db = open_db(&dir).unwrap();
        assert_eq!(db.store().node_count(), 4);
        for t in &topics {
            let s = db.query(t, TimeRange::all()).unwrap();
            assert_eq!(s.readings.len(), 50, "{t} lost readings");
        }
        // sizes see every node's runs
        let sizes = db_sizes(&db, &dir).unwrap();
        assert_eq!(sizes.readings, 32 * 50);
        assert!(sizes.stored_bytes > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn random_partitioner_roundtrips() {
        let dir = std::env::temp_dir().join(format!("dcdb-tools-random-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let topics: Vec<String> = (0..16).map(|n| format!("/r/x/n{n}/power")).collect();
        let registry = Arc::new(TopicRegistry::new());
        {
            let store =
                Arc::new(StoreCluster::new(NodeConfig::default(), PartitionMap::random(3), 1));
            let db = SensorDb::new(store, Arc::clone(&registry));
            for t in &topics {
                db.insert(t, 1, 5.0).unwrap();
            }
            save_db(&db, &dir).unwrap();
        }
        let meta = std::fs::read_to_string(dir.join("cluster.list")).unwrap();
        assert!(meta.contains("partitioner random"), "{meta}");
        // reloading rebuilds random routing, so every sensor is found again
        let db = open_db(&dir).unwrap();
        for t in &topics {
            assert_eq!(db.query(t, TimeRange::all()).unwrap().readings.len(), 1, "{t}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn runs_without_cluster_list_are_rejected() {
        let dir = std::env::temp_dir().join(format!("dcdb-tools-loose-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sid = TopicRegistry::new().resolve("/old/s").unwrap();
        std::fs::write(dir.join("topics.list"), format!("{} /old/s\n", sid.to_hex())).unwrap();
        // no runs yet: an empty database
        assert_eq!(open_db(&dir).unwrap().store().total_entries(), 0);
        let node = dcdb_store::StoreNode::default();
        node.insert(sid, 1, 7.0);
        node.flush();
        let invalid = |dir: &Path| match open_db(dir) {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}"),
            Ok(_) => panic!("{} opened without a cluster.list", dir.display()),
        };
        // a bare node0/ ...
        node.persist(&dir.join("node0")).unwrap();
        invalid(&dir);
        // ... and loose runs in the root
        std::fs::remove_dir_all(dir.join("node0")).unwrap();
        node.persist(&dir).unwrap();
        invalid(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
