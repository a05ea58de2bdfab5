//! A single storage server.
//!
//! Combines the LSM pieces: an active [`MemTable`], a backlog of frozen
//! memtables awaiting flush, a stack of immutable [`SsTable`] runs, range
//! tombstones for deletes, TTL expiry and size-tiered compaction.
//! `dcdbconfig`'s database-management tasks ("deleting old data or
//! compacting", paper §5.2) map to [`StoreNode::delete_range`] and
//! [`StoreNode::compact`].
//!
//! # Write path and maintenance
//!
//! An insert that fills the memtable *freezes* it into the flush backlog
//! and returns; the backlog stays visible to queries.  Who drains the
//! backlog depends on [`NodeConfig::maintenance_threads`]:
//!
//! * `0` (default) — the inserting thread encodes and pushes the SSTable
//!   itself, then compacts when the run count crosses the threshold:
//!   fully synchronous, deterministic, what unit tests want.
//! * `>= 1` — the frozen memtable is handed to the node's
//!   [`MaintenancePool`]; the insert returns immediately.  The backlog is
//!   bounded ([`NodeConfig::max_pending_flushes`]): a writer that outruns
//!   the flush workers blocks on it — a counted **write stall** — instead
//!   of growing memory without bound.
//!
//! Compaction always merges **outside** the `sstables` write lock, on
//! cloned block handles: readers and writers proceed during the merge, and
//! the write lock is held only for the final table *swap*.  The swap is
//! generation-checked, so runs flushed while the merge ran are never lost.
//! A compaction-in-progress guard coalesces concurrent requests instead of
//! re-merging.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// lint: allow(std-sync-lock) -- the flush backlog blocks writers on a
// Condvar, which the vendored parking_lot stub does not provide
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dcdb_sid::SensorId;

use crate::locks::{named_rwlock, RwLock};

use crate::cache::{BlockCache, CacheStats};
use crate::iter::SeriesIter;
use crate::maintenance::{unix_ms, MaintenancePool, MaintenanceSnapshot, PoolShared};
use crate::memtable::MemTable;
use crate::reading::{Reading, TimeRange, Timestamp};
use crate::sstable::{BlockRef, DecodeCounters, SsTable};

/// One source run inside a [`SeriesSnapshot`].
#[derive(Debug, Clone)]
pub enum SnapshotRun {
    /// Compressed SSTable blocks intersecting the range — *not yet decoded*;
    /// consumers decode them lazily as their cursor reaches each block.
    Blocks(Vec<BlockRef>),
    /// Already-materialised readings (the memtable's in-range slice).
    Readings(Vec<Reading>),
}

/// A consistent point-in-time view of one sensor's data for a range,
/// read through [`SeriesIter`].  SSTable data stays
/// compressed; only block *handles* are captured here — a compaction
/// swapping the tables mid-query cannot invalidate them.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Source runs ordered oldest → newest (the memtable, when non-empty,
    /// is last); on duplicate timestamps the newest source wins.
    pub runs: Vec<SnapshotRun>,
    /// Timestamp ranges whose readings must be dropped (tombstones covering
    /// this sensor, plus the TTL horizon).
    pub drop_ranges: Vec<TimeRange>,
}

/// Tuning for one storage node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Memtable size that triggers a flush, in entries.
    pub memtable_flush_entries: usize,
    /// Number of SSTables that triggers an automatic compaction.
    pub compaction_threshold: usize,
    /// Time-to-live for readings; `None` keeps data forever.
    pub ttl: Option<i64>,
    /// Budget of the decoded-block cache, in readings (≈ 16 bytes each);
    /// `0` disables caching — every query decodes afresh, exactly the
    /// pre-cache behaviour.  A cluster built from this config shares one
    /// cache of this size across all its nodes.
    pub block_cache_readings: usize,
    /// Background maintenance worker threads owning flush and compaction.
    /// `0` (default) keeps maintenance synchronous on the insert path; a
    /// cluster built from this config shares **one** pool of this size
    /// across all its nodes.
    pub maintenance_threads: usize,
    /// Flush the memtable at least this often (nanoseconds) even when it
    /// is far below `memtable_flush_entries`, so a trickle of readings
    /// still becomes durable.  `0` disables time-based flushing.  Only
    /// effective with `maintenance_threads >= 1` (the ticker lives in the
    /// pool).
    pub flush_interval_ns: i64,
    /// Bound of the frozen-memtable flush backlog in background mode; a
    /// writer filling memtables faster than the workers drain them stalls
    /// on this bound (write backpressure, surfaced as a counter).
    pub max_pending_flushes: usize,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            memtable_flush_entries: 256 * 1024,
            compaction_threshold: 8,
            ttl: None,
            block_cache_readings: 0,
            maintenance_threads: 0,
            flush_interval_ns: 0,
            max_pending_flushes: 4,
        }
    }
}

/// The maintenance ticker period implied by a node configuration: fast
/// enough to honour `flush_interval_ns` with slack, and a slow heartbeat
/// for TTL enforcement; `None` when neither feature is on.
pub(crate) fn tick_interval(cfg: &NodeConfig) -> Option<std::time::Duration> {
    if cfg.flush_interval_ns > 0 {
        let ns = (cfg.flush_interval_ns as u64 / 4).clamp(10_000_000, 1_000_000_000);
        Some(std::time::Duration::from_nanos(ns))
    } else if cfg.ttl.is_some() {
        Some(std::time::Duration::from_millis(500))
    } else {
        None
    }
}

#[derive(Debug, Default)]
struct Tombstones {
    /// Deleted `(sid, range)` pairs; `None` sid = all sensors.
    ranges: Vec<(Option<SensorId>, TimeRange)>,
}

fn covers(ranges: &[(Option<SensorId>, TimeRange)], sid: SensorId, ts: Timestamp) -> bool {
    ranges.iter().any(|(s, r)| (s.is_none() || *s == Some(sid)) && r.contains(ts))
}

impl Tombstones {
    fn covers(&self, sid: SensorId, ts: Timestamp) -> bool {
        covers(&self.ranges, sid, ts)
    }
}

/// Ingest/query counters for the evaluation harness.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Readings inserted.
    pub inserts: AtomicU64,
    /// Range queries served.
    pub queries: AtomicU64,
    /// Memtable flushes performed.
    pub flushes: AtomicU64,
    /// Compactions performed — **real merges only**: coalesced requests and
    /// no-op early returns (single run, no tombstones, nothing expired) are
    /// not counted.
    pub compactions: AtomicU64,
    /// Real merges *started* (a merge in flight shows up here before it
    /// shows up in `compactions`).
    pub compactions_started: AtomicU64,
    /// Compaction requests that found a merge already in flight and
    /// coalesced into it instead of queueing a second merge.
    pub compactions_coalesced: AtomicU64,
    /// Merges abandoned at swap time because the table set changed
    /// underneath them (generation check).
    pub compactions_aborted: AtomicU64,
    /// Total wall-clock nanoseconds spent merging.
    pub compaction_ns: AtomicU64,
    /// Merges executed synchronously on a *writer* thread via the
    /// automatic flush path — always `0` when background maintenance is
    /// on (the concurrency tests assert this).
    pub inline_merges: AtomicU64,
    /// Writer stalls on the bounded flush backlog.
    pub stalls: AtomicU64,
    /// Total wall-clock nanoseconds writers spent stalled.
    pub stall_ns: AtomicU64,
    /// Unix milliseconds of the most recent completed flush (`0` = never).
    pub last_flush_unix_ms: AtomicU64,
}

/// The observability instruments a node's hot paths feed *directly* — the
/// latency histograms (its counters stay in [`NodeStats`] and join the
/// metrics registry as scrape-time callbacks).  These are shared `Arc`s
/// into the owning cluster's registry; a standalone node gets private
/// unregistered instruments.  Deliberately **not** a registry handle: the
/// registry's callback instruments capture node `Arc`s, so a node holding
/// the registry would form a cycle and leak the maintenance pool.
#[derive(Debug, Clone)]
pub struct NodeInstruments {
    /// Gates the `Instant::now` pairs (shared with `Registry::enabled`,
    /// the bench's instrumentation-off arm).
    enabled: Arc<AtomicBool>,
    /// Wall time of one `insert_batch` call, backpressure stalls included.
    pub insert_latency_ns: Arc<dcdb_obs::Histogram>,
    /// Wall time encoding + publishing one frozen memtable.
    pub flush_ns: Arc<dcdb_obs::Histogram>,
    /// Wall time of one real merge (started → swapped or aborted).
    pub compaction_ns: Arc<dcdb_obs::Histogram>,
    /// Wall time of one writer stall on the bounded flush backlog.
    pub stall_ns: Arc<dcdb_obs::Histogram>,
    /// The structured event journal the node's exceptional paths report to
    /// (stalls, compaction aborts, flush panics, corrupt blocks).  Shared
    /// with the owning cluster's registry; a standalone node journals
    /// privately.
    pub events: Arc<dcdb_obs::EventJournal>,
}

impl Default for NodeInstruments {
    fn default() -> Self {
        NodeInstruments {
            enabled: Arc::new(AtomicBool::new(true)),
            insert_latency_ns: Arc::new(dcdb_obs::Histogram::new()),
            flush_ns: Arc::new(dcdb_obs::Histogram::new()),
            compaction_ns: Arc::new(dcdb_obs::Histogram::new()),
            stall_ns: Arc::new(dcdb_obs::Histogram::new()),
            events: Arc::new(dcdb_obs::EventJournal::new(256)),
        }
    }
}

impl NodeInstruments {
    /// Instruments registered in (and gated by) `reg` — every node built
    /// from the same registry feeds the same cluster-wide histograms.
    pub fn from_registry(reg: &dcdb_obs::Registry) -> Self {
        NodeInstruments {
            enabled: reg.enabled_flag(),
            insert_latency_ns: reg.histogram("dcdb_insert_latency_ns"),
            flush_ns: reg.histogram("dcdb_flush_ns"),
            compaction_ns: reg.histogram("dcdb_compaction_ns"),
            stall_ns: reg.histogram("dcdb_stall_ns"),
            events: reg.events(),
        }
    }

    fn timing_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// The LSM state shared between a [`StoreNode`] handle and the background
/// maintenance jobs it spawns (jobs keep the state alive via `Arc` even if
/// the node handle is dropped mid-flight).
pub(crate) struct NodeCore {
    cfg: NodeConfig,
    memtable: RwLock<MemTable>,
    /// Frozen memtables awaiting flush, oldest first.  Visible to queries:
    /// readings are never "in limbo" between freeze and SSTable push.
    frozen: Mutex<VecDeque<Arc<MemTable>>>,
    /// Signalled when the backlog shrinks (backpressure / flush waiters).
    frozen_cond: Condvar,
    /// True while some thread (worker or writer) is draining the backlog;
    /// guarantees one flusher per node, which preserves run order — and
    /// with it newest-wins upsert semantics across memtable generations.
    flush_active: AtomicBool,
    sstables: RwLock<Vec<SsTable>>,
    tombstones: RwLock<Tombstones>,
    /// Serialises merges; `try_lock` failure = a merge is in flight and the
    /// request coalesces.
    compaction: Mutex<()>,
    /// A compaction job is already queued on the pool (dedup).
    compact_queued: AtomicBool,
    /// TTL cutoff the last ticker-triggered merge enforced — hysteresis so
    /// steady ingest does not re-merge the whole store on every tick.
    ttl_enforced_to: std::sync::atomic::AtomicI64,
    stats: NodeStats,
    /// Latency histograms fed by the hot paths (see [`NodeInstruments`]).
    instruments: NodeInstruments,
    /// Decoded-block cache attached to every table this node creates or
    /// loads (`None` = always decode).  May be shared with other nodes of
    /// a cluster for one process-wide reading budget.
    cache: Option<Arc<BlockCache>>,
    /// Query decode counters every table of this node feeds — monotonic,
    /// unlike a sum over the live tables, which compaction rewinds.
    decodes: Arc<DecodeCounters>,
    /// Monotonic "now" for TTL decisions, advanced by the caller; avoids
    /// wall-clock reads in the hot path and keeps simulations deterministic.
    now: AtomicU64,
}

impl NodeCore {
    fn ttl_cutoff(&self) -> Option<Timestamp> {
        self.cfg.ttl.map(|ttl| self.now.load(Ordering::Relaxed) as Timestamp - ttl)
    }

    /// Freeze the active memtable into the flush backlog and make sure a
    /// flusher is running.  The backlog push happens **while the memtable
    /// write guard is held**, so at every instant a reading is reachable
    /// through exactly one of memtable/backlog/SSTables — readers racing a
    /// freeze can never observe a hole.
    ///
    /// With `only_if_full` the freeze re-checks the size trigger under the
    /// lock (concurrent writers race to freeze; exactly one wins).
    /// Returns whether a memtable was actually frozen.
    fn freeze_memtable(
        core: &Arc<NodeCore>,
        pool: Option<&Arc<PoolShared>>,
        only_if_full: bool,
        stall_bound: bool,
    ) -> bool {
        // Backpressure first, while holding no lock readers or the flusher
        // need.  The bound is re-checked without the memtable lock, so N
        // racing writers can overshoot it by at most N-1 memtables —
        // backpressure, not a hard memory cap.
        if stall_bound && pool.is_some() {
            let max = core.cfg.max_pending_flushes.max(1);
            let mut q = core.frozen.lock().expect("flush backlog");
            if q.len() >= max {
                core.stats.stalls.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                while q.len() >= max {
                    q = core.frozen_cond.wait(q).expect("flush backlog");
                }
                let stalled = t0.elapsed().as_nanos() as u64;
                core.stats.stall_ns.fetch_add(stalled, Ordering::Relaxed);
                core.instruments.stall_ns.observe(stalled);
                core.instruments.events.record(
                    dcdb_obs::EventKind::BackpressureStall,
                    dcdb_obs::Severity::Warning,
                    "store",
                    format!("writer stalled {}us on a full flush backlog ({max})", stalled / 1_000),
                );
            }
        }
        {
            let mut mt = core.memtable.write();
            if mt.is_empty() || (only_if_full && mt.len() < core.cfg.memtable_flush_entries) {
                return false;
            }
            let full = std::mem::take(&mut *mt);
            core.frozen.lock().expect("flush backlog").push_back(Arc::new(full));
        }
        NodeCore::ensure_flusher(core, pool);
        true
    }

    /// Start a backlog drain unless one is already running.
    fn ensure_flusher(core: &Arc<NodeCore>, pool: Option<&Arc<PoolShared>>) {
        match pool {
            Some(pool) => {
                if !core.flush_active.swap(true, Ordering::AcqRel) {
                    let c = Arc::clone(core);
                    let p = Arc::clone(pool);
                    pool.submit(Box::new(move || NodeCore::drain_flush_backlog(&c, Some(&p))));
                }
            }
            None => {
                // if another writer is already draining it will pick this
                // memtable up; its readings stay visible via the backlog
                if !core.flush_active.swap(true, Ordering::AcqRel) {
                    NodeCore::drain_flush_backlog(core, None);
                }
            }
        }
    }

    /// The single-flusher loop: encode the oldest frozen memtable, push its
    /// SSTable, *then* pop it from the backlog (so its readings are visible
    /// in one place or the other at every instant), repeat until empty.
    ///
    /// Panic-safe: if anything in the loop unwinds (the pool catches job
    /// panics), the drop guard hands the flusher role back so the next
    /// freeze restarts a drain — a poisoned batch must not wedge the whole
    /// flush pipeline with `flush_active` stuck true.
    fn drain_flush_backlog(core: &Arc<NodeCore>, pool: Option<&Arc<PoolShared>>) {
        struct HandBack<'a> {
            core: &'a NodeCore,
            armed: bool,
        }
        impl Drop for HandBack<'_> {
            fn drop(&mut self) {
                if self.armed {
                    // unwinding: release the flusher role under the backlog
                    // lock (poison-tolerant) and wake writers/waiters
                    let _q =
                        self.core.frozen.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    self.core.flush_active.store(false, Ordering::Release);
                    self.core.frozen_cond.notify_all();
                    self.core.instruments.events.record(
                        dcdb_obs::EventKind::FlushFailed,
                        dcdb_obs::Severity::Error,
                        "store",
                        "flush drain panicked; flusher role handed back",
                    );
                }
            }
        }
        let mut guard = HandBack { core, armed: true };
        loop {
            let mt = {
                let q = core.frozen.lock().expect("flush backlog");
                match q.front() {
                    Some(m) => Arc::clone(m),
                    None => {
                        // normal exit: release the role while still holding
                        // the lock, so a racing push either sees it free or
                        // its memtable is already visible to this check
                        core.flush_active.store(false, Ordering::Release);
                        core.frozen_cond.notify_all();
                        guard.armed = false;
                        return;
                    }
                }
            };
            if !mt.is_empty() {
                let t0 = Instant::now();
                let table = SsTable::from_sorted_cached(mt.sorted_entries(), core.cache.clone());
                table.attach_node(&core.instruments.events, &core.decodes);
                core.sstables.write().push(table);
                core.instruments.flush_ns.observe(t0.elapsed().as_nanos() as u64);
                core.stats.flushes.fetch_add(1, Ordering::Relaxed);
                core.stats.last_flush_unix_ms.store(unix_ms(), Ordering::Relaxed);
            }
            {
                let mut q = core.frozen.lock().expect("flush backlog");
                // pop exactly the memtable this iteration flushed: freezes
                // only push at the back while `flush_active` holds the
                // front stable, so a mismatch means that invariant broke —
                // journal it and leave the queue alone rather than blindly
                // discarding a memtable that was never flushed
                if q.front().is_some_and(|p| Arc::ptr_eq(p, &mt)) {
                    q.pop_front();
                } else {
                    core.instruments.events.record(
                        dcdb_obs::EventKind::FlushFailed,
                        dcdb_obs::Severity::Error,
                        "store",
                        "flush backlog head changed under the active flusher; \
                         pop skipped to avoid dropping an unflushed memtable",
                    );
                }
                core.frozen_cond.notify_all();
            }
            NodeCore::maybe_request_compact(core, pool);
        }
    }

    /// Kick off a compaction when the run count crosses the threshold:
    /// queued on the pool in background mode, run inline otherwise.
    fn maybe_request_compact(core: &Arc<NodeCore>, pool: Option<&Arc<PoolShared>>) {
        if core.sstables.read().len() < core.cfg.compaction_threshold {
            return;
        }
        match pool {
            Some(pool) => NodeCore::queue_compact_job(core, pool),
            None => {
                NodeCore::try_compact(core, true);
            }
        }
    }

    /// Queue one deduplicated compaction job on the pool (`compact_queued`
    /// collapses bursts of requests into a single queued job).
    fn queue_compact_job(core: &Arc<NodeCore>, pool: &Arc<PoolShared>) {
        if !core.compact_queued.swap(true, Ordering::AcqRel) {
            let c = Arc::clone(core);
            pool.submit(Box::new(move || {
                c.compact_queued.store(false, Ordering::Release);
                NodeCore::try_compact(&c, false);
            }));
        }
    }

    /// Compact unless a merge is already in flight, in which case the
    /// request coalesces (counted) instead of re-merging.  A guard
    /// poisoned by a panicking merge is recovered, not propagated —
    /// matching the poison-free locking style of the rest of the store.
    fn try_compact(core: &Arc<NodeCore>, inline: bool) -> bool {
        match core.compaction.try_lock() {
            Ok(_guard) => {
                NodeCore::compact_locked(core, inline);
                true
            }
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                let _guard = poisoned.into_inner();
                NodeCore::compact_locked(core, inline);
                true
            }
            Err(std::sync::TryLockError::WouldBlock) => {
                core.stats.compactions_coalesced.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The merge itself; caller holds the compaction guard.
    ///
    /// Structure: snapshot (short read lock) → merge on cloned block
    /// handles (no lock) → generation-checked swap (short write lock).
    /// Readers and writers are never blocked for the merge, only for the
    /// swap.
    fn compact_locked(core: &Arc<NodeCore>, inline: bool) {
        let cutoff = core.ttl_cutoff();
        let tombs_snapshot: Vec<(Option<SensorId>, TimeRange)> =
            core.tombstones.read().ranges.clone();
        let (clones, snap_ids): (Vec<SsTable>, Vec<u64>) = {
            let tables = core.sstables.read();
            let expired =
                cutoff.is_some_and(|c| tables.iter().any(|t| !t.is_empty() && t.min_ts() < c));
            // no-op: a single run with nothing to purge needs no merge (and
            // must not inflate the compactions counter)
            if tables.len() <= 1 && tombs_snapshot.is_empty() && !expired {
                return;
            }
            (tables.iter().cloned().collect(), tables.iter().map(SsTable::table_id).collect())
        };
        core.stats.compactions_started.fetch_add(1, Ordering::Relaxed);
        if inline {
            core.stats.inline_merges.fetch_add(1, Ordering::Relaxed);
        }
        let t0 = Instant::now();
        let refs: Vec<&SsTable> = clones.iter().collect();
        let merged = SsTable::merge_cached(
            &refs,
            |sid, ts| covers(&tombs_snapshot, sid, ts) || cutoff.is_some_and(|c| ts < c),
            core.cache.clone(),
        );
        merged.attach_node(&core.instruments.events, &core.decodes);
        {
            let mut tables = core.sstables.write();
            let n = snap_ids.len();
            // generation check: runs flushed mid-merge appended themselves
            // behind our snapshot; anything else (a racing load) aborts the
            // swap so no table is ever silently dropped
            let unchanged_prefix = tables.len() >= n
                && tables.iter().take(n).map(SsTable::table_id).eq(snap_ids.iter().copied());
            if !unchanged_prefix {
                core.stats.compactions_aborted.fetch_add(1, Ordering::Relaxed);
                core.instruments.events.record(
                    dcdb_obs::EventKind::CompactionAborted,
                    dcdb_obs::Severity::Warning,
                    "store",
                    format!("merge of {n} runs aborted: table set changed under the snapshot"),
                );
                return;
            }
            let fully_merged = tables.len() == n;
            // the replaced tables' cached payloads are unreachable from here
            // on (the merged table has a fresh id): stop them re-populating
            // the cache, then free their budget immediately
            if let Some(cache) = &core.cache {
                for t in tables.iter().take(n) {
                    t.retire();
                    cache.purge_table(t.table_id());
                }
            }
            let replacement = if merged.is_empty() { None } else { Some(merged) };
            tables.splice(0..n, replacement);
            // Tombstones are fully applied to the merged data; runs flushed
            // mid-merge, frozen memtables and the active memtable may still
            // hold covered entries.  Clear the applied tombstones only when
            // no unmerged run exists and the memtable is filtered too —
            // otherwise keep them (queries still hide covered readings; a
            // later compaction purges physically).
            if !tombs_snapshot.is_empty()
                && fully_merged
                && core.frozen.lock().expect("flush backlog").is_empty()
            {
                let mut mt = core.memtable.write();
                let mut live = core.tombstones.write();
                live.ranges.drain(0..tombs_snapshot.len());
                let old = std::mem::take(&mut *mt);
                let mut filtered = MemTable::new();
                for (sid, ts, value) in old.into_sorted_entries() {
                    if !covers(&tombs_snapshot, sid, ts) {
                        filtered.insert(sid, ts, value);
                    }
                }
                *mt = filtered;
            }
        }
        let merged_ns = t0.elapsed().as_nanos() as u64;
        core.stats.compaction_ns.fetch_add(merged_ns, Ordering::Relaxed);
        core.instruments.compaction_ns.observe(merged_ns);
        core.stats.compactions.fetch_add(1, Ordering::Relaxed);
    }

    /// One maintenance ticker iteration: time-based flush and TTL
    /// enforcement (background mode only).
    pub(crate) fn tick(core: &Arc<NodeCore>, pool: &Arc<PoolShared>) {
        if core.cfg.flush_interval_ns > 0 {
            let interval_ms = (core.cfg.flush_interval_ns / 1_000_000).max(1) as u64;
            let last = core.stats.last_flush_unix_ms.load(Ordering::Relaxed);
            let stale = unix_ms().saturating_sub(last) >= interval_ms;
            let backlog_empty = core.frozen.lock().expect("flush backlog").is_empty();
            if stale && backlog_empty {
                NodeCore::freeze_memtable(core, Some(pool), false, false);
            }
        }
        if let Some(cutoff) = core.ttl_cutoff() {
            // Hysteresis: a full merge rewrites the whole store, so don't
            // re-trigger one every tick just because the cutoff crept
            // forward — wait until at least a tenth of the TTL window has
            // expired since the last TTL-triggered merge.
            let ttl = core.cfg.ttl.unwrap_or(0);
            let enforced_to = core.ttl_enforced_to.load(Ordering::Relaxed);
            if cutoff.saturating_sub(enforced_to) < ttl / 10 {
                return;
            }
            let expired = core.sstables.read().iter().any(|t| !t.is_empty() && t.min_ts() < cutoff);
            if expired {
                core.ttl_enforced_to.store(cutoff, Ordering::Relaxed);
                NodeCore::queue_compact_job(core, pool);
            }
        }
    }
}

/// One storage server (one Cassandra node in the paper's deployment).
pub struct StoreNode {
    core: Arc<NodeCore>,
    /// Background maintenance pool (possibly shared cluster-wide); `None`
    /// keeps flush/compaction synchronous on the calling thread.
    pool: Option<Arc<MaintenancePool>>,
}

impl StoreNode {
    /// Create a node, with its own decoded-block cache when
    /// [`NodeConfig::block_cache_readings`] is non-zero and its own
    /// maintenance pool when [`NodeConfig::maintenance_threads`] is.
    pub fn new(cfg: NodeConfig) -> Self {
        let cache = (cfg.block_cache_readings > 0)
            .then(|| Arc::new(BlockCache::new(cfg.block_cache_readings)));
        StoreNode::with_cache(cfg, cache)
    }

    /// Create a node using the given decoded-block cache (overriding
    /// [`NodeConfig::block_cache_readings`]).  A maintenance pool is still
    /// created from the config; clusters sharing one pool across nodes use
    /// [`StoreNode::with_shared`] instead.
    pub fn with_cache(cfg: NodeConfig, cache: Option<Arc<BlockCache>>) -> Self {
        let pool = (cfg.maintenance_threads > 0)
            .then(|| MaintenancePool::start(cfg.maintenance_threads, tick_interval(&cfg)));
        StoreNode::with_shared(cfg, cache, pool)
    }

    /// Create a node wired to an existing decoded-block cache and
    /// maintenance pool — how a cluster shares one bounded cache and one
    /// worker pool across all its nodes.
    pub fn with_shared(
        cfg: NodeConfig,
        cache: Option<Arc<BlockCache>>,
        pool: Option<Arc<MaintenancePool>>,
    ) -> Self {
        StoreNode::with_instruments(cfg, cache, pool, NodeInstruments::default())
    }

    /// [`StoreNode::with_shared`] with the node's latency histograms wired
    /// to a cluster's metrics registry (via
    /// [`NodeInstruments::from_registry`]) instead of private defaults.
    pub fn with_instruments(
        cfg: NodeConfig,
        cache: Option<Arc<BlockCache>>,
        pool: Option<Arc<MaintenancePool>>,
        instruments: NodeInstruments,
    ) -> Self {
        let core = Arc::new(NodeCore {
            cfg,
            memtable: named_rwlock("NodeCore.memtable", MemTable::new()),
            frozen: Mutex::new(VecDeque::new()),
            frozen_cond: Condvar::new(),
            flush_active: AtomicBool::new(false),
            sstables: named_rwlock("NodeCore.sstables", Vec::new()),
            tombstones: named_rwlock("NodeCore.tombstones", Tombstones::default()),
            compaction: Mutex::new(()),
            compact_queued: AtomicBool::new(false),
            ttl_enforced_to: std::sync::atomic::AtomicI64::new(i64::MIN),
            stats: NodeStats::default(),
            instruments,
            cache,
            decodes: Arc::default(),
            now: AtomicU64::new(0),
        });
        if let Some(pool) = &pool {
            let weak = Arc::downgrade(&core);
            pool.register_tick(Box::new(move |shared| {
                if let Some(core) = weak.upgrade() {
                    NodeCore::tick(&core, shared);
                }
            }));
        }
        StoreNode { core, pool }
    }

    fn pool_shared(&self) -> Option<&Arc<PoolShared>> {
        self.pool.as_ref().map(|p| p.shared())
    }

    /// Advance the node's notion of now (nanoseconds), used for TTL expiry.
    pub fn set_now(&self, ts: Timestamp) {
        self.core.now.store(ts.max(0) as u64, Ordering::Relaxed);
    }

    /// Advance "now" monotonically: like [`StoreNode::set_now`] but never
    /// moves backwards — safe to call from concurrent ingest paths with
    /// per-batch timestamps.
    pub fn advance_now(&self, ts: Timestamp) {
        self.core.now.fetch_max(ts.max(0) as u64, Ordering::Relaxed);
    }

    /// Insert one reading.
    pub fn insert(&self, sid: SensorId, ts: Timestamp, value: f64) {
        self.core.stats.inserts.fetch_add(1, Ordering::Relaxed);
        let full = {
            let mut mt = self.core.memtable.write();
            mt.insert(sid, ts, value);
            mt.len() >= self.core.cfg.memtable_flush_entries
        };
        if full {
            NodeCore::freeze_memtable(&self.core, self.pool_shared(), true, true);
        }
    }

    /// Insert a batch of readings for one sensor: [`StoreNode::insert_many`]
    /// with one entry.
    pub fn insert_batch(&self, sid: SensorId, readings: &[Reading]) {
        self.insert_many(&[(sid, readings)]);
    }

    /// Insert the readings of several sensors, in order (the Collect Agent's
    /// path: one call per delivered batch of publishes).  A later write to
    /// the same `(sensor, ts)` wins.
    ///
    /// The memtable lock is taken once per call.  A memtable that fills is
    /// frozen after the entry that filled it, as it would be with one call
    /// per entry, and the rest goes into the fresh one.
    ///
    /// When timed instrumentation is enabled the whole call — including any
    /// backpressure stall behind a full flush backlog — is observed into
    /// `dcdb_insert_latency_ns`, once.  The single-reading
    /// [`StoreNode::insert`] path stays counter-only: an `Instant::now` pair
    /// per reading would cost more than the insert it measures.
    pub fn insert_many(&self, entries: &[(SensorId, &[Reading])]) {
        let t0 = self.core.instruments.timing_enabled().then(Instant::now);
        let count: usize = entries.iter().map(|(_, readings)| readings.len()).sum();
        self.core.stats.inserts.fetch_add(count as u64, Ordering::Relaxed);
        let mut rest = entries;
        while !rest.is_empty() {
            let full = {
                let mut mt = self.core.memtable.write();
                let mut full = false;
                while let [(sid, readings), tail @ ..] = rest {
                    for r in *readings {
                        mt.insert(*sid, r.ts, r.value);
                    }
                    rest = tail;
                    full = mt.len() >= self.core.cfg.memtable_flush_entries;
                    if full {
                        break;
                    }
                }
                full
            };
            if full {
                NodeCore::freeze_memtable(&self.core, self.pool_shared(), true, true);
            }
        }
        if let Some(t0) = t0 {
            self.core.instruments.insert_latency_ns.observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Flush the active memtable and drain the whole flush backlog into
    /// SSTables before returning (used before persistence and by the
    /// delete paths) — synchronous even in background mode.
    pub fn flush(&self) {
        let core = &self.core;
        NodeCore::freeze_memtable(core, self.pool_shared(), false, false);
        // become the flusher, or wait until the active one has drained
        // everything (including our freeze above)
        if !core.flush_active.swap(true, Ordering::AcqRel) {
            NodeCore::drain_flush_backlog(core, self.pool_shared());
        } else {
            let mut q = core.frozen.lock().expect("flush backlog");
            while !q.is_empty() || core.flush_active.load(Ordering::Acquire) {
                let (guard, _) = core
                    .frozen_cond
                    .wait_timeout(q, std::time::Duration::from_millis(20))
                    .expect("flush backlog");
                q = guard;
            }
        }
    }

    /// Merge all SSTables into one, dropping tombstoned and expired
    /// entries.  Blocks until any in-flight merge finishes, then merges —
    /// the admin path (`dcdbconfig db compact`).  The merge itself runs
    /// outside the `sstables` write lock; see [`NodeStats::compactions`]
    /// for what is counted.
    pub fn compact(&self) {
        // lint: allow(lock-across-slow-op) -- the compaction mutex exists to
        // serialise whole merges; holding it across the merge is its job,
        // and no data lock is held while waiting on it
        let _guard = self.core.compaction.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        NodeCore::compact_locked(&self.core, false);
    }

    /// Block until every maintenance job handed to the background pool has
    /// completed (no-op in synchronous mode).
    pub fn quiesce(&self) {
        if let Some(pool) = &self.pool {
            pool.wait_idle();
        }
    }

    /// The node's background maintenance pool, when one is attached.
    pub fn maintenance_pool(&self) -> Option<&Arc<MaintenancePool>> {
        self.pool.as_ref()
    }

    /// Point-in-time maintenance counters (stalls, queue depth, merge
    /// durations, last flush).
    pub fn maintenance_stats(&self) -> MaintenanceSnapshot {
        let s = &self.core.stats;
        MaintenanceSnapshot {
            threads: self.pool.as_ref().map_or(0, |p| p.threads()),
            pending_flushes: self.core.frozen.lock().expect("flush backlog").len() as u64,
            stalls: s.stalls.load(Ordering::Relaxed),
            stall_ns: s.stall_ns.load(Ordering::Relaxed),
            flushes: s.flushes.load(Ordering::Relaxed),
            compactions: s.compactions.load(Ordering::Relaxed),
            compactions_coalesced: s.compactions_coalesced.load(Ordering::Relaxed),
            compactions_aborted: s.compactions_aborted.load(Ordering::Relaxed),
            compaction_ns: s.compaction_ns.load(Ordering::Relaxed),
            last_flush_unix_ms: s.last_flush_unix_ms.load(Ordering::Relaxed),
            ticks: self.pool.as_ref().map_or(0, |p| p.ticks()),
        }
    }

    /// Delete readings of `sid` within `range`.
    ///
    /// Deletes are admin-path operations (`dcdbconfig`'s "deleting old
    /// data"), so they are applied *eagerly*: the tombstone is registered and
    /// a flush + compaction immediately purges covered entries.  Data written
    /// after this call is unaffected, matching Cassandra's timestamped
    /// tombstone semantics without carrying per-entry write-times.
    pub fn delete_range(&self, sid: SensorId, range: TimeRange) {
        self.core.tombstones.write().ranges.push((Some(sid), range));
        self.flush();
        self.compact();
    }

    /// Delete readings of *all* sensors before `cutoff` ("delete old data").
    pub fn delete_all_before(&self, cutoff: Timestamp) {
        self.core.tombstones.write().ranges.push((None, TimeRange::new(Timestamp::MIN, cutoff)));
        self.flush();
        self.compact();
    }

    /// Query readings of `sid` within `range`, in timestamp order: the
    /// snapshot's [`SeriesIter`], collected.
    pub fn query_range(&self, sid: SensorId, range: TimeRange) -> Vec<Reading> {
        SeriesIter::new(self.series_snapshot(sid, range), range).collect()
    }

    /// Capture a [`SeriesSnapshot`] of `sid` over `range` — the pushdown
    /// entry point: SSTable blocks that do not intersect `range` are
    /// excluded up front, the rest are captured as compressed handles for
    /// the consumer to decode lazily.  Frozen memtables awaiting a
    /// background flush contribute materialised runs between the SSTables
    /// and the active memtable.
    pub fn series_snapshot(&self, sid: SensorId, range: TimeRange) -> SeriesSnapshot {
        let core = &self.core;
        core.stats.queries.fetch_add(1, Ordering::Relaxed);
        // Memtable first, then the frozen backlog, then the SSTables: data
        // moving down the pipeline between the lock acquisitions shows up
        // *twice* (and the iterator's newest-wins dedup drops the copy)
        // instead of falling in a hole.
        let mut mem = Vec::new();
        core.memtable.read().query(sid, range, &mut mem);
        let backlog: Vec<Arc<MemTable>> =
            core.frozen.lock().expect("flush backlog").iter().cloned().collect();
        let mut runs = Vec::new();
        {
            let tables = core.sstables.read();
            for t in tables.iter() {
                let blocks = t.blocks_for(sid, range);
                if !blocks.is_empty() {
                    runs.push(SnapshotRun::Blocks(blocks));
                }
            }
        }
        for mt in &backlog {
            let mut frozen_hits = Vec::new();
            mt.query(sid, range, &mut frozen_hits);
            if !frozen_hits.is_empty() {
                runs.push(SnapshotRun::Readings(frozen_hits));
            }
        }
        if !mem.is_empty() {
            runs.push(SnapshotRun::Readings(mem));
        }
        let mut drop_ranges: Vec<TimeRange> = core
            .tombstones
            .read()
            .ranges
            .iter()
            .filter(|(s, _)| s.is_none() || *s == Some(sid))
            .map(|&(_, r)| r)
            .collect();
        if let Some(cutoff) = core.ttl_cutoff() {
            drop_ranges.push(TimeRange::new(Timestamp::MIN, cutoff));
        }
        SeriesSnapshot { runs, drop_ranges }
    }

    /// Compressed blocks decoded by queries against this node since it
    /// was built — monotonic across compactions, which decode but are no
    /// query.  With a block cache attached this counts cache misses only —
    /// a warm query decodes 0.
    pub fn blocks_decoded(&self) -> u64 {
        self.core.decodes.blocks.load(Ordering::Relaxed)
    }

    /// Readings produced by the decodes [`StoreNode::blocks_decoded`]
    /// counts.
    pub fn readings_decoded(&self) -> u64 {
        self.core.decodes.readings.load(Ordering::Relaxed)
    }

    /// Blocks whose payload failed its checksummed decode since the node
    /// was built — corruption that would otherwise silently surface as
    /// missing readings (see [`SsTable::blocks_corrupt`]).
    pub fn blocks_corrupt(&self) -> u64 {
        self.core.decodes.corrupt.load(Ordering::Relaxed)
    }

    /// The node's decoded-block cache, when one is configured.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.core.cache.as_ref()
    }

    /// Counters of the decoded-block cache (all-zero stats when caching is
    /// disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.core.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Total compressed blocks across this node's SSTables.
    pub fn block_count(&self) -> usize {
        self.core.sstables.read().iter().map(|t| t.block_count()).sum()
    }

    /// Most recent reading of `sid`.  On equal timestamps the newest
    /// *source* wins — active memtable over frozen backlog over SSTables,
    /// later generations over earlier — matching [`SeriesIter`]'s dedup.
    /// A reading older than the TTL horizon is expired here as in every
    /// query.
    pub fn latest(&self, sid: SensorId) -> Option<Reading> {
        let core = &self.core;
        // read order memtable → backlog → tables (see series_snapshot): data
        // mid-flush duplicates across sources instead of disappearing
        let mem = core.memtable.read().latest(sid);
        let backlog: Vec<Arc<MemTable>> =
            core.frozen.lock().expect("flush backlog").iter().cloned().collect();
        // combine the in-memory sources oldest → newest with `>=`, so an
        // equal-timestamp upsert in a newer generation overrides
        let mut mem_best: Option<Reading> = None;
        for r in backlog.iter().filter_map(|mt| mt.latest(sid)).chain(mem) {
            if mem_best.is_none_or(|b| r.ts >= b.ts) {
                mem_best = Some(r);
            }
        }
        // SSTables hold strictly older generations than anything still in
        // memory (the single FIFO flusher guarantees it), so a table wins
        // against `mem_best` only with a strictly newer timestamp; among
        // tables, later ones are newer and win ties
        let tables = core.sstables.read();
        let mut table_best: Option<Reading> = None;
        for t in tables.iter() {
            // header check first: in the common live case the memtable
            // already holds the freshest reading and nothing decompresses
            let Some(hint) = t.latest_ts_hint(sid) else { continue };
            if mem_best.is_some_and(|b| hint <= b.ts) || table_best.is_some_and(|b| hint < b.ts) {
                continue;
            }
            if let Some(r) = t.latest(sid) {
                if table_best.is_none_or(|b| r.ts >= b.ts) {
                    table_best = Some(r);
                }
            }
        }
        let best = match (mem_best, table_best) {
            (Some(m), Some(t)) => Some(if t.ts > m.ts { t } else { m }),
            (m, t) => m.or(t),
        };
        let expired = |r: &Reading| core.ttl_cutoff().is_some_and(|cutoff| r.ts < cutoff);
        let tombs = core.tombstones.read();
        best.filter(|r| !expired(r) && !tombs.covers(sid, r.ts))
    }

    /// Total entries across memtable, frozen backlog and SSTables
    /// (duplicates included; a batch mid-flush is briefly counted in both
    /// the backlog and its freshly-pushed run).
    pub fn approx_entries(&self) -> usize {
        // one lock per statement: summing all three in a single expression
        // keeps the `frozen` temporary alive while `sstables` is acquired —
        // the reverse of `compact_locked`'s sstables → frozen order (ABBA)
        let core = &self.core;
        let mem = core.memtable.read().len();
        let frozen: usize =
            core.frozen.lock().expect("flush backlog").iter().map(|m| m.len()).sum();
        let tables: usize = core.sstables.read().iter().map(|t| t.len()).sum();
        mem + frozen + tables
    }

    /// Approximate memory footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        // statement-per-lock for the same lock-order reason as
        // [`StoreNode::approx_entries`]
        let core = &self.core;
        let mem = core.memtable.read().approx_bytes();
        let frozen: usize =
            core.frozen.lock().expect("flush backlog").iter().map(|m| m.approx_bytes()).sum();
        let tables: usize = core.sstables.read().iter().map(|t| t.approx_bytes()).sum();
        mem + frozen + tables
    }

    /// Node counters.
    pub fn stats(&self) -> &NodeStats {
        &self.core.stats
    }

    /// Persist every SSTable (after a [`Self::flush`]) into `dir`, then
    /// remove the `*.sst` files of an earlier, longer run list: [`Self::load`]
    /// would replay them as the newest runs and resurrect compacted-away
    /// values and deleted ranges.
    ///
    /// # Errors
    /// Propagates filesystem failures.
    pub fn persist(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir)?;
        // snapshot the run list (cheap: block handles are Arc-shared) so
        // file IO never runs under the `sstables` lock
        let tables: Vec<SsTable> = self.core.sstables.read().clone();
        let mut live = std::collections::HashSet::new();
        for (i, t) in tables.iter().enumerate() {
            let path = dir.join(format!("{i:06}.sst"));
            t.write_to(&mut std::fs::File::create(&path)?)?;
            live.insert(path);
        }
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "sst") && !live.contains(&path) {
                std::fs::remove_file(&path)?;
            }
        }
        Ok(tables.len())
    }

    /// Load SSTables previously written by [`Self::persist`].
    ///
    /// # Errors
    /// Propagates filesystem and format failures.
    pub fn load(&self, dir: &std::path::Path) -> std::io::Result<usize> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "sst"))
            .collect();
        paths.sort();
        // decode every file before taking the lock: readers keep going
        // during the (slow) IO, and a decode error leaves the node unchanged
        let mut staged = Vec::new();
        for p in paths {
            let mut f = std::fs::File::open(&p)?;
            let table = SsTable::read_from_cached(&mut f, self.core.cache.clone())?;
            table.attach_node(&self.core.instruments.events, &self.core.decodes);
            staged.push(table);
        }
        let loaded = staged.len();
        self.core.sstables.write().extend(staged);
        Ok(loaded)
    }
}

impl Default for StoreNode {
    fn default() -> Self {
        StoreNode::new(NodeConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u16) -> SensorId {
        SensorId::from_fields(&[3, n]).unwrap()
    }

    #[test]
    fn insert_query_through_flush() {
        let node = StoreNode::new(NodeConfig { memtable_flush_entries: 10, ..Default::default() });
        for ts in 0..25 {
            node.insert(sid(1), ts, ts as f64);
        }
        let got = node.query_range(sid(1), TimeRange::new(0, 100));
        assert_eq!(got.len(), 25);
        assert!(node.stats().flushes.load(Ordering::Relaxed) >= 2);
        // order and values survive the flush boundary
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.ts, i as i64);
            assert_eq!(r.value, i as f64);
        }
    }

    #[test]
    fn delete_range_hides_and_compaction_purges() {
        let node = StoreNode::default();
        for ts in 0..10 {
            node.insert(sid(1), ts, 1.0);
        }
        node.delete_range(sid(1), TimeRange::new(3, 7));
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got.iter().map(|r| r.ts).collect::<Vec<_>>(), vec![0, 1, 2, 7, 8, 9]);
        node.flush();
        node.compact();
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got.len(), 6);
        assert_eq!(node.approx_entries(), 6);
    }

    #[test]
    fn delete_all_before_cleans_every_sensor() {
        let node = StoreNode::default();
        for s in 1..4 {
            for ts in 0..10 {
                node.insert(sid(s), ts, 0.0);
            }
        }
        node.delete_all_before(5);
        for s in 1..4 {
            assert_eq!(node.query_range(sid(s), TimeRange::all()).len(), 5);
        }
    }

    #[test]
    fn ttl_expires_old_data() {
        let node = StoreNode::new(NodeConfig { ttl: Some(100), ..Default::default() });
        for ts in 0..200 {
            node.insert(sid(1), ts, 0.0);
        }
        node.set_now(200);
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got.first().unwrap().ts, 100);
        assert_eq!(got.len(), 100);
        // compaction physically drops them
        node.flush();
        node.compact();
        assert_eq!(node.approx_entries(), 100);
    }

    #[test]
    fn latest_across_runs() {
        let node = StoreNode::new(NodeConfig { memtable_flush_entries: 5, ..Default::default() });
        for ts in 0..12 {
            node.insert(sid(1), ts, ts as f64);
        }
        assert_eq!(node.latest(sid(1)).unwrap().ts, 11);
        node.delete_range(sid(1), TimeRange::new(11, 12));
        // latest is tombstoned → hidden
        assert!(node.latest(sid(1)).is_none_or(|r| r.ts != 11));
    }

    #[test]
    fn upsert_across_flush_newest_wins() {
        let node = StoreNode::new(NodeConfig { memtable_flush_entries: 4, ..Default::default() });
        node.insert(sid(1), 10, 1.0);
        node.flush();
        node.insert(sid(1), 10, 2.0);
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, 2.0);
        node.flush();
        node.compact();
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got[0].value, 2.0);
    }

    #[test]
    fn latest_equal_ts_upsert_across_runs_returns_newest() {
        // two uncompacted runs both ending at ts 10: the later run's value
        // must win, exactly as the read path's newest-wins dedup decides
        let node =
            StoreNode::new(NodeConfig { compaction_threshold: usize::MAX, ..Default::default() });
        node.insert(sid(1), 10, 1.0);
        node.flush();
        node.insert(sid(1), 10, 2.0);
        node.flush();
        assert_eq!(node.latest(sid(1)).map(|r| r.value), Some(2.0));
        // ... and the memtable's equal-ts upsert beats both runs
        node.insert(sid(1), 10, 3.0);
        assert_eq!(node.latest(sid(1)).map(|r| r.value), Some(3.0));
        assert_eq!(node.query_range(sid(1), TimeRange::all()).last().map(|r| r.value), Some(3.0));
    }

    /// A one-block `DCDBSST3` image whose frame passes its checksum but
    /// whose series claims `extra` more readings than its bitstream holds.
    fn forged_image(s: SensorId, n: i64, extra: u32) -> Vec<u8> {
        let run: Vec<(i64, f64)> = (0..n).map(|ts| (ts, ts as f64)).collect();
        let mut frame = Vec::new();
        dcdb_compress::encode_framed_into(&run, &mut frame);
        let hdr = dcdb_compress::FRAME_HEADER_BYTES;
        let count = n as u32 + extra;
        frame[hdr + 1..hdr + 5].copy_from_slice(&count.to_le_bytes());
        // re-seal: FNV-1a over the header fields and the series bytes
        let fnv = |h: u32, b: &[u8]| {
            b.iter().fold(h, |h, &x| (h ^ u32::from(x)).wrapping_mul(0x0100_0193))
        };
        let sum = fnv(fnv(0x811C_9DC5, &frame[..20]), &frame[hdr..]);
        frame[20..24].copy_from_slice(&sum.to_le_bytes());
        let mut image = b"DCDBSST3".to_vec();
        image.extend_from_slice(&u64::from(count).to_be_bytes());
        image.extend_from_slice(&1u64.to_be_bytes());
        image.extend_from_slice(&s.raw().to_be_bytes());
        image.extend_from_slice(&1u32.to_be_bytes());
        image.extend_from_slice(&frame);
        image
    }

    #[test]
    fn decode_counters_never_go_backwards() {
        let dir = std::env::temp_dir().join(format!("dcdb-store-decodes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("000000.sst"), forged_image(sid(2), 100, 1000)).unwrap();
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: 512,
            compaction_threshold: usize::MAX,
            ..Default::default()
        });
        for ts in 0..4096 {
            node.insert(sid(1), ts, ts as f64);
        }
        node.flush(); // eight one-block tables
        node.load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(node.query_range(sid(1), TimeRange::all()).len(), 4096);
        assert!(
            node.query_range(sid(2), TimeRange::all()).is_empty(),
            "corrupt block yields nothing"
        );
        let counters =
            |n: &StoreNode| (n.blocks_decoded(), n.readings_decoded(), n.blocks_corrupt());
        assert_eq!(counters(&node), (9, 4096, 1));
        // the merge replaces every table: a sum over live tables would fall
        // back to 0 here; its full scan is no query and does not count,
        // but it does meet the corrupt block again
        node.compact();
        assert_eq!(counters(&node), (9, 4096, 2));
        assert_eq!(node.query_range(sid(1), TimeRange::all()).len(), 4096);
        assert_eq!(counters(&node), (17, 8192, 2));
    }

    #[test]
    fn persistence_roundtrip() {
        let dir = std::env::temp_dir().join(format!("dcdb-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node = StoreNode::default();
        for ts in 0..50 {
            node.insert(sid(1), ts, ts as f64 * 0.5);
        }
        node.flush();
        node.persist(&dir).unwrap();

        let restored = StoreNode::default();
        assert_eq!(restored.load(&dir).unwrap(), 1);
        let got = restored.query_range(sid(1), TimeRange::all());
        assert_eq!(got.len(), 50);
        assert_eq!(got[10].value, 5.0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persist_removes_runs_of_an_earlier_longer_list() {
        let dir = std::env::temp_dir().join(format!("dcdb-store-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let node =
            StoreNode::new(NodeConfig { compaction_threshold: usize::MAX, ..Default::default() });
        for run in 0..3i64 {
            for ts in 0..20 {
                // every run rewrites the same timestamps: the newest run wins
                node.insert(sid(1), ts, (run * 100 + ts) as f64);
            }
            node.flush();
        }
        assert_eq!(node.persist(&dir).unwrap(), 3);

        node.delete_range(sid(1), TimeRange::new(5, 10));
        node.compact();
        assert_eq!(node.persist(&dir).unwrap(), 1);

        let restored = StoreNode::default();
        assert_eq!(restored.load(&dir).unwrap(), 1, "stale 000001/000002.sst were removed");
        assert_eq!(
            restored.query_range(sid(1), TimeRange::all()),
            node.query_range(sid(1), TimeRange::all())
        );
        assert!(restored.query_range(sid(1), TimeRange::new(5, 10)).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_purges_replaced_tables_from_cache() {
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: 512,
            compaction_threshold: usize::MAX,
            block_cache_readings: 1 << 20,
            ..Default::default()
        });
        for ts in 0..1024 {
            node.insert(sid(1), ts, ts as f64);
        }
        node.flush(); // two tables of one block each
        let cache = std::sync::Arc::clone(node.block_cache().expect("cache configured"));
        let _ = node.query_range(sid(1), TimeRange::all());
        assert_eq!(cache.used_readings(), 1024, "cold query cached both tables' blocks");
        node.compact();
        assert_eq!(cache.used_readings(), 0, "replaced tables' entries purged");
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got.len(), 1024);
        assert_eq!(cache.used_readings(), 1024, "merged table re-cached under its own id");
    }

    #[test]
    fn compaction_reduces_table_count() {
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: 10,
            compaction_threshold: 4,
            ttl: None,
            ..Default::default()
        });
        for ts in 0..100 {
            node.insert(sid(1), ts, 0.0);
        }
        // auto-compaction kept the table count below the threshold
        assert!(node.stats().compactions.load(Ordering::Relaxed) >= 1);
        assert_eq!(node.query_range(sid(1), TimeRange::all()).len(), 100);
    }

    #[test]
    fn idle_compact_loops_do_not_inflate_the_counter() {
        // regression: the counter used to be bumped before the no-op check,
        // so a maintain() loop on an idle node showed phantom compactions
        let node = StoreNode::default();
        for ts in 0..10 {
            node.insert(sid(1), ts, 1.0);
        }
        node.flush();
        node.compact(); // single run, nothing to purge → no-op
        for _ in 0..5 {
            node.compact();
        }
        assert_eq!(node.stats().compactions.load(Ordering::Relaxed), 0, "no-ops were counted");
        // a real merge is still counted
        node.insert(sid(1), 100, 2.0);
        node.flush();
        node.compact();
        assert_eq!(node.stats().compactions.load(Ordering::Relaxed), 1);
        assert_eq!(node.query_range(sid(1), TimeRange::all()).len(), 11);
    }

    #[test]
    fn ttl_node_with_nothing_expired_does_not_merge() {
        let node = StoreNode::new(NodeConfig { ttl: Some(1_000), ..Default::default() });
        for ts in 0..50 {
            node.insert(sid(1), ts, 0.0);
        }
        node.set_now(500); // cutoff = -500: nothing expired
        node.flush();
        for _ in 0..3 {
            node.compact();
        }
        assert_eq!(node.stats().compactions.load(Ordering::Relaxed), 0);
        node.set_now(1_010); // cutoff = 10: readings 0..10 expired
        node.compact();
        assert_eq!(node.stats().compactions.load(Ordering::Relaxed), 1);
        assert_eq!(node.approx_entries(), 40);
    }

    #[test]
    fn background_mode_flushes_and_compacts_off_the_insert_path() {
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: 64,
            compaction_threshold: 3,
            maintenance_threads: 2,
            ..Default::default()
        });
        for ts in 0..1_000 {
            node.insert(sid(1), ts, ts as f64);
        }
        node.quiesce();
        node.flush();
        node.compact();
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got.len(), 1_000);
        for (i, r) in got.iter().enumerate() {
            assert_eq!(r.ts, i as i64);
        }
        assert!(node.stats().flushes.load(Ordering::Relaxed) >= 10);
        // no merge ever ran on the inserting thread
        assert_eq!(node.stats().inline_merges.load(Ordering::Relaxed), 0);
        let m = node.maintenance_stats();
        assert_eq!(m.threads, 2);
        assert_eq!(m.pending_flushes, 0, "quiesce drained the backlog");
        assert!(m.last_flush_unix_ms > 0);
    }

    #[test]
    fn backlog_data_visible_before_background_flush_lands() {
        // a node whose pool is deliberately starved: freeze a memtable and
        // query before any worker could have flushed it
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: 8,
            maintenance_threads: 1,
            ..Default::default()
        });
        for ts in 0..8 {
            node.insert(sid(1), ts, 1.0); // freezes at the 8th insert
        }
        // regardless of whether the flush landed yet, all 8 are queryable
        // (duplicates across backlog and a just-pushed run are deduped)
        let got = node.query_range(sid(1), TimeRange::all());
        assert_eq!(got.len(), 8);
        assert_eq!(node.latest(sid(1)).unwrap().ts, 7);
        node.quiesce();
        assert_eq!(node.approx_entries(), 8);
        assert_eq!(node.query_range(sid(1), TimeRange::all()).len(), 8);
    }

    #[test]
    fn time_based_flush_tick_makes_trickle_durable() {
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: 1 << 20, // size trigger never fires
            maintenance_threads: 1,
            flush_interval_ns: 40_000_000, // 40 ms
            ..Default::default()
        });
        node.insert(sid(1), 1, 1.0);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while node.stats().flushes.load(Ordering::Relaxed) == 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(node.stats().flushes.load(Ordering::Relaxed) >= 1, "time-based flush never fired");
        node.quiesce();
        assert_eq!(node.query_range(sid(1), TimeRange::all()).len(), 1);
        assert!(node.maintenance_stats().ticks >= 1);
    }

    #[test]
    fn ttl_tick_purges_expired_data_without_manual_compact() {
        let node = StoreNode::new(NodeConfig {
            memtable_flush_entries: 1 << 20,
            maintenance_threads: 1,
            flush_interval_ns: 20_000_000,
            ttl: Some(100),
            ..Default::default()
        });
        for ts in 0..200 {
            node.insert(sid(1), ts, 0.0);
        }
        node.advance_now(200);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while node.approx_entries() > 100 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        node.quiesce();
        assert_eq!(node.approx_entries(), 100, "TTL tick never purged expired readings");
        assert_eq!(node.query_range(sid(1), TimeRange::all()).len(), 100);
    }
}
