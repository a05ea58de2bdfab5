//! Immutable sorted runs ("SSTables") of lazily-decoded compressed blocks.
//!
//! A frozen memtable becomes an SSTable: each sensor's run is chunked into
//! fixed-size **compressed blocks** (`dcdb-compress` frames, [`BLOCK_LEN`]
//! readings each) carrying a `(min_ts, max_ts, count)` pushdown header.
//! Data stays compressed *in memory* — a block is decoded only when a query
//! range actually intersects it, and a per-table counter
//! ([`SsTable::blocks_decoded`]) makes that laziness observable to tests
//! and benchmarks.
//!
//! The one on-disk format, **`DCDBSST3`** ([`SsTable::write_to`] /
//! [`SsTable::read_from`]), is the in-memory block layout serialised
//! verbatim: `[magic][u64 entries][u64 sensors]` then per sensor
//! `[u128 sid][u32 n_blocks]` followed by that many `dcdb-compress` frames.
//! Loading performs **no decompression at all**; blocks materialise on
//! first intersecting query.  Any other magic is `InvalidData`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Buf;
use dcdb_sid::SensorId;

use crate::cache::{BlockCache, BlockKey};
use crate::reading::{Reading, TimeRange, Timestamp};

/// Process-wide table-id source: every [`SsTable`] instance gets a unique
/// id so decoded-block cache keys never collide across tables (including a
/// compacted table and its replacement).
static TABLE_IDS: AtomicU64 = AtomicU64::new(1);

/// Magic bytes of the on-disk format.
const MAGIC: &[u8; 8] = b"DCDBSST3";

/// Readings per compressed block.  Large enough that frame headers are
/// noise (~24 bytes per block ≈ 0.05 bits/reading), small enough that a
/// dashboard-style query over a few percent of a long series skips the
/// bulk of the decode work.
pub const BLOCK_LEN: usize = 512;

/// One immutable compressed block of a sensor's run: a `dcdb-compress`
/// frame plus its pushdown header, shared cheaply via `Arc`.
///
/// Blocks stay compressed in memory (the whole point of the format).  A
/// decode first consults the owning table's optional [`BlockCache`]; only
/// a *miss* performs the Gorilla decode and bumps the table's counter, so
/// "how much did this query decompress" stays a hard number rather than a
/// guess.  Without a cache (the default) every decode is fresh, exactly as
/// before the cache existed.
#[derive(Debug, Clone)]
pub struct BlockRef {
    inner: Arc<BlockInner>,
}

/// Query decode counters: a table's own, and the node-wide set every table
/// of a node feeds, so compaction replacing tables never rewinds them.
/// Compaction's full scans ([`SsTable::iter`]) are not query decodes and
/// do not count; corrupt blocks count whoever finds them.
#[derive(Debug, Default)]
pub struct DecodeCounters {
    /// Blocks decoded (= decoded-block cache misses).
    pub blocks: AtomicU64,
    /// Readings those decodes produced.
    pub readings: AtomicU64,
    /// Blocks whose checksummed payload failed to decode.
    pub corrupt: AtomicU64,
}

/// Per-table context shared by all of a table's blocks: identity, decode /
/// corruption counters and the (optional) decoded-block cache.
#[derive(Debug)]
struct TableCtx {
    table_id: u64,
    counters: DecodeCounters,
    /// Set when the table has been replaced (compaction): decodes by
    /// still-running queries stop populating the cache, so purged entries
    /// cannot be resurrected under a dead table id.
    retired: std::sync::atomic::AtomicBool,
    cache: Option<Arc<BlockCache>>,
    /// The owning node's event journal and counters (attached via
    /// [`SsTable::attach_node`]; a free-standing table only counts and
    /// logs).
    node: std::sync::OnceLock<(Arc<dcdb_obs::EventJournal>, Arc<DecodeCounters>)>,
}

impl TableCtx {
    fn new(cache: Option<Arc<BlockCache>>) -> Arc<TableCtx> {
        Arc::new(TableCtx {
            table_id: TABLE_IDS.fetch_add(1, Ordering::Relaxed),
            counters: DecodeCounters::default(),
            retired: std::sync::atomic::AtomicBool::new(false),
            cache,
            node: std::sync::OnceLock::new(),
        })
    }

    /// Bump `field` of the table's counters and of its node's.
    fn count(&self, field: fn(&DecodeCounters) -> &AtomicU64, n: u64) {
        field(&self.counters).fetch_add(n, Ordering::Relaxed);
        if let Some((_, node)) = self.node.get() {
            field(node).fetch_add(n, Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct BlockInner {
    min_ts: Timestamp,
    max_ts: Timestamp,
    count: usize,
    /// The encoded frame (header + series), as written to disk.
    frame: Vec<u8>,
    /// Cache identity: the sensor and block index within its run (the
    /// table id lives in `ctx`).
    sid: SensorId,
    block_idx: u32,
    /// Counters + cache of the owning table.
    ctx: Arc<TableCtx>,
}

impl BlockRef {
    fn from_run(
        run: &[(i64, f64)],
        sid: SensorId,
        block_idx: u32,
        ctx: &Arc<TableCtx>,
    ) -> BlockRef {
        let mut frame = Vec::with_capacity(dcdb_compress::FRAME_HEADER_BYTES + run.len() * 4);
        dcdb_compress::encode_framed_into(run, &mut frame);
        let info = dcdb_compress::peek_frame(&frame).expect("self-encoded frame peeks");
        BlockRef {
            inner: Arc::new(BlockInner {
                min_ts: info.min_ts,
                max_ts: info.max_ts,
                count: info.count,
                frame,
                sid,
                block_idx,
                ctx: Arc::clone(ctx),
            }),
        }
    }

    fn key(&self) -> BlockKey {
        BlockKey {
            table_id: self.inner.ctx.table_id,
            sid: self.inner.sid,
            block_idx: self.inner.block_idx,
        }
    }

    /// Smallest timestamp in the block.
    pub fn min_ts(&self) -> Timestamp {
        self.inner.min_ts
    }

    /// Largest timestamp in the block.
    pub fn max_ts(&self) -> Timestamp {
        self.inner.max_ts
    }

    /// Number of readings in the block.
    pub fn count(&self) -> usize {
        self.inner.count
    }

    /// Decode the frame unconditionally, checksum included, straight into
    /// [`Reading`]s.  On failure it logs, bumps the corruption counters
    /// ([`SsTable::blocks_corrupt`]) and yields an empty payload.  Frames
    /// are checksum-verified at load, so a failure here means a forged
    /// payload that survived the checksum; an empty result (plus the
    /// counter, which monitoring can alert on) beats poisoning the whole
    /// process — and beats a `debug_assert!` that would make release
    /// builds lose data *silently*.
    fn decode_fresh(&self) -> Arc<[Reading]> {
        let mut readings = Vec::new();
        match dcdb_compress::decode_framed_into(&self.inner.frame, &mut readings, Reading::new) {
            Ok(_) => Arc::from(readings),
            Err(e) => {
                self.inner.ctx.count(|c| &c.corrupt, 1);
                eprintln!(
                    "dcdb-store: checksummed block failed to decode \
                     (table {} sid {:#x} block {}): {e}",
                    self.inner.ctx.table_id, self.inner.sid.0, self.inner.block_idx,
                );
                if let Some((journal, _)) = self.inner.ctx.node.get() {
                    journal.record(
                        dcdb_obs::EventKind::CorruptBlock,
                        dcdb_obs::Severity::Error,
                        format!("table{}", self.inner.ctx.table_id),
                        format!(
                            "block {} of sid {:#x} failed its checksummed decode: {e}",
                            self.inner.block_idx, self.inner.sid.0,
                        ),
                    );
                }
                Arc::from(Vec::new())
            }
        }
    }

    /// The block's decoded readings (timestamp order), shared: served
    /// from the owning table's [`BlockCache`] when one is attached and
    /// holds the block (no decompression, no counter bump), decoded fresh
    /// and counted ([`SsTable::blocks_decoded`]) otherwise.  Retired tables
    /// (replaced by compaction) decode fresh without touching the cache,
    /// so in-flight queries cannot re-insert entries under a table id that
    /// was just purged.
    pub fn decode_shared(&self) -> Arc<[Reading]> {
        let ctx = &self.inner.ctx;
        let cache = ctx.cache.as_ref().filter(|_| !ctx.retired.load(Ordering::Relaxed));
        if let Some(hit) = cache.and_then(|c| c.get(self.key())) {
            return hit;
        }
        let decoded = self.decode_fresh();
        ctx.count(|c| &c.blocks, 1);
        ctx.count(|c| &c.readings, decoded.len() as u64);
        if let Some(cache) = cache {
            cache.insert(self.key(), Arc::clone(&decoded));
        }
        decoded
    }

    /// Encoded frame size in bytes.
    pub fn frame_bytes(&self) -> usize {
        self.inner.frame.len()
    }
}

/// An immutable sorted run of per-sensor compressed blocks.
#[derive(Debug, Clone)]
pub struct SsTable {
    runs: BTreeMap<SensorId, Vec<BlockRef>>,
    len: usize,
    min_ts: Timestamp,
    max_ts: Timestamp,
    /// Identity, decode/corruption counters and optional decoded-block
    /// cache (shared by clones and every block).
    ctx: Arc<TableCtx>,
}

impl SsTable {
    /// Build from `(sid, ts, value)` entries sorted by `(sid, ts)`,
    /// compressing each sensor's run into [`BLOCK_LEN`]-reading blocks.
    /// No decoded-block cache is attached; see
    /// [`SsTable::from_sorted_cached`].
    ///
    /// # Panics
    /// Debug-asserts the sort order.
    pub fn from_sorted(entries: Vec<(SensorId, Timestamp, f64)>) -> Self {
        SsTable::from_sorted_cached(entries, None)
    }

    /// [`SsTable::from_sorted`] with an optional decoded-block cache every
    /// block of this table will consult on decode.
    ///
    /// # Panics
    /// Debug-asserts the sort order.
    pub fn from_sorted_cached(
        entries: Vec<(SensorId, Timestamp, f64)>,
        cache: Option<Arc<BlockCache>>,
    ) -> Self {
        // lint: allow(debug-assert-integrity) -- encode-side precondition on
        // trusted in-process input (memtables iterate in sorted order); the
        // O(n) scan is too costly to keep on the release flush path
        debug_assert!(
            entries.windows(2).all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
            "entries must be sorted by (sid, ts)"
        );
        let ctx = TableCtx::new(cache);
        let mut runs: BTreeMap<SensorId, Vec<BlockRef>> = BTreeMap::new();
        let mut min_ts = Timestamp::MAX;
        let mut max_ts = Timestamp::MIN;
        let len = entries.len();
        let mut run: Vec<(i64, f64)> = Vec::new();
        let mut i = 0;
        while i < entries.len() {
            let sid = entries[i].0;
            run.clear();
            while i < entries.len() && entries[i].0 == sid {
                min_ts = min_ts.min(entries[i].1);
                max_ts = max_ts.max(entries[i].1);
                run.push((entries[i].1, entries[i].2));
                i += 1;
            }
            let blocks = run
                .chunks(BLOCK_LEN)
                .enumerate()
                .map(|(idx, c)| BlockRef::from_run(c, sid, idx as u32, &ctx))
                .collect();
            runs.insert(sid, blocks);
        }
        SsTable { runs, len, min_ts, max_ts, ctx }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Smallest timestamp stored (or `MAX` when empty).
    pub fn min_ts(&self) -> Timestamp {
        self.min_ts
    }

    /// Largest timestamp stored (or `MIN` when empty).
    pub fn max_ts(&self) -> Timestamp {
        self.max_ts
    }

    /// Approximate in-memory footprint: the compressed frames plus index
    /// overhead — typically several times smaller than the decoded entries.
    pub fn approx_bytes(&self) -> usize {
        self.runs
            .values()
            .map(|blocks| 48 + blocks.iter().map(|b| b.frame_bytes() + 64).sum::<usize>())
            .sum()
    }

    /// Blocks decompressed by queries against this table (and its clones)
    /// so far — the pushdown observability counter.  With a decoded-block
    /// cache attached this counts cache *misses* only: a hit serves the
    /// already-decoded payload and does no decompression work.
    pub fn blocks_decoded(&self) -> u64 {
        self.ctx.counters.blocks.load(Ordering::Relaxed)
    }

    /// The table's process-unique id — the cache-key component that lets
    /// [`BlockCache::purge_table`] drop a replaced table's entries.
    pub fn table_id(&self) -> u64 {
        self.ctx.table_id
    }

    /// Blocks whose checksummed payload failed to decode (forged or
    /// memory-corrupted data) — surfaced next to [`SsTable::blocks_decoded`]
    /// so silent data loss is impossible: a corrupt block yields no
    /// readings but always leaves a trace here and in the log.
    pub fn blocks_corrupt(&self) -> u64 {
        self.ctx.counters.corrupt.load(Ordering::Relaxed)
    }

    /// Attach the owning node: future decodes of this table (and its
    /// clones) also feed the node's `counters`, and corrupt blocks are
    /// reported to `journal` as typed
    /// [`dcdb_obs::EventKind::CorruptBlock`] events.  First attachment
    /// wins; later calls are no-ops.
    pub fn attach_node(
        &self,
        journal: &Arc<dcdb_obs::EventJournal>,
        counters: &Arc<DecodeCounters>,
    ) {
        let _ = self.ctx.node.set((Arc::clone(journal), Arc::clone(counters)));
    }

    /// Total number of compressed blocks.
    pub fn block_count(&self) -> usize {
        self.runs.values().map(Vec::len).sum()
    }

    /// The compressed blocks of `sid` intersecting `range`, in timestamp
    /// order — the pushdown handle [`crate::SeriesIter`] decodes lazily.
    /// Nothing is decoded here.
    pub fn blocks_for(&self, sid: SensorId, range: TimeRange) -> Vec<BlockRef> {
        let Some(blocks) = self.runs.get(&sid) else { return Vec::new() };
        // blocks are ts-ordered and non-overlapping: binary search the span
        let lo = blocks.partition_point(|b| b.max_ts() < range.start);
        blocks[lo..].iter().take_while(|b| b.min_ts() < range.end).cloned().collect()
    }

    /// Timestamp of `sid`'s latest reading, straight from the last block's
    /// pushdown header — no decompression.  Lets callers skip
    /// [`SsTable::latest`] entirely when a fresher reading is already in
    /// hand.
    pub fn latest_ts_hint(&self, sid: SensorId) -> Option<Timestamp> {
        Some(self.runs.get(&sid)?.last()?.max_ts())
    }

    /// Latest reading of `sid` (decodes at most one block).
    pub fn latest(&self, sid: SensorId) -> Option<Reading> {
        self.runs.get(&sid)?.last()?.decode_shared().last().copied()
    }

    /// Iterate over all entries in `(sid, ts)` order, decoding every block
    /// (used by compaction).  Bypasses the decoded-block cache and the
    /// query decode counters entirely: a maintenance full scan inserting
    /// every block would evict the dashboards' hot entries and skew the
    /// hit/miss statistics with traffic no query issued.
    pub fn iter(&self) -> impl Iterator<Item = (SensorId, Timestamp, f64)> + '_ {
        self.runs.iter().flat_map(|(&sid, blocks)| {
            blocks.iter().flat_map(move |b| {
                let decoded = b.decode_fresh();
                (0..decoded.len()).map(move |i| (sid, decoded[i].ts, decoded[i].value))
            })
        })
    }

    /// Mark the table as replaced: decodes by queries still holding its
    /// blocks stop populating the cache.  Called before
    /// [`BlockCache::purge_table`] so purged entries stay purged.
    pub fn retire(&self) {
        self.ctx.retired.store(true, Ordering::Relaxed);
    }

    /// All sensors with data in this table.
    pub fn sensors(&self) -> impl Iterator<Item = SensorId> + '_ {
        self.runs.keys().copied()
    }

    /// Merge several tables into one, newest table winning on `(sid, ts)`
    /// duplicates; entries matched by `drop_if` (tombstone/TTL filter) are
    /// discarded.  `tables` must be ordered oldest → newest.
    pub fn merge<F>(tables: &[&SsTable], drop_if: F) -> SsTable
    where
        F: FnMut(SensorId, Timestamp) -> bool,
    {
        SsTable::merge_cached(tables, drop_if, None)
    }

    /// [`SsTable::merge`] attaching a decoded-block cache to the merged
    /// table (the merged table has a fresh table id, so stale cache entries
    /// of the inputs can never serve its reads).
    pub fn merge_cached<F>(
        tables: &[&SsTable],
        mut drop_if: F,
        cache: Option<Arc<BlockCache>>,
    ) -> SsTable
    where
        F: FnMut(SensorId, Timestamp) -> bool,
    {
        // Collect with newest-wins: later tables overwrite earlier ones.
        let mut map: BTreeMap<(SensorId, Timestamp), f64> = BTreeMap::new();
        for t in tables {
            for (sid, ts, value) in t.iter() {
                map.insert((sid, ts), value);
            }
        }
        let entries: Vec<(SensorId, Timestamp, f64)> = map
            .into_iter()
            .filter(|&((sid, ts), _)| !drop_if(sid, ts))
            .map(|((sid, ts), value)| (sid, ts, value))
            .collect();
        SsTable::from_sorted_cached(entries, cache)
    }

    // ------------------------------------------------------------ persistence

    /// Serialise to the on-disk format.  The frames
    /// are already encoded in memory, so this is a plain copy — no
    /// compression work happens at persist time.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut out = Vec::with_capacity(24 + self.block_count() * 64);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.len as u64).to_be_bytes());
        out.extend_from_slice(&(self.runs.len() as u64).to_be_bytes());
        for (sid, blocks) in &self.runs {
            out.extend_from_slice(&sid.raw().to_be_bytes());
            out.extend_from_slice(&(blocks.len() as u32).to_be_bytes());
            for b in blocks {
                out.extend_from_slice(&b.inner.frame);
            }
        }
        w.write_all(&out)
    }

    /// Read back an image written by [`SsTable::write_to`] without
    /// decompressing anything.  No decoded-block cache is attached; see
    /// [`SsTable::read_from_cached`].
    ///
    /// # Errors
    /// `InvalidData` on bad magic, truncation, a failed frame checksum or
    /// out-of-order sensors/blocks.
    pub fn read_from<R: Read>(r: &mut R) -> std::io::Result<SsTable> {
        SsTable::read_from_cached(r, None)
    }

    /// [`SsTable::read_from`] with an optional decoded-block cache for the
    /// loaded table.
    ///
    /// # Errors
    /// As [`SsTable::read_from`].
    pub fn read_from_cached<R: Read>(
        r: &mut R,
        cache: Option<Arc<BlockCache>>,
    ) -> std::io::Result<SsTable> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw)?;
        match raw.strip_prefix(MAGIC) {
            Some(body) => SsTable::decode_body(body, cache),
            None => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "bad SSTable magic")),
        }
    }

    fn decode_body(mut buf: &[u8], cache: Option<Arc<BlockCache>>) -> std::io::Result<SsTable> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        if buf.len() < 16 {
            return Err(bad("truncated SSTable header"));
        }
        let n_entries = buf.get_u64() as usize;
        let n_sensors = buf.get_u64() as usize;
        let ctx = TableCtx::new(cache);
        let mut runs: BTreeMap<SensorId, Vec<BlockRef>> = BTreeMap::new();
        let mut total = 0usize;
        let mut min_ts = Timestamp::MAX;
        let mut max_ts = Timestamp::MIN;
        let mut prev_sid: Option<SensorId> = None;
        for _ in 0..n_sensors {
            if buf.remaining() < 20 {
                return Err(bad("truncated SSTable sensor header"));
            }
            let sid = SensorId(buf.get_u128());
            if prev_sid.is_some_and(|p| p >= sid) {
                return Err(bad("SSTable sensors out of order"));
            }
            prev_sid = Some(sid);
            let n_blocks = buf.get_u32() as usize;
            // untrusted count: every block costs ≥ the frame+series headers
            if n_blocks
                > buf.remaining()
                    / (dcdb_compress::FRAME_HEADER_BYTES + dcdb_compress::SERIES_HEADER_BYTES)
            {
                return Err(bad("SSTable block count exceeds payload"));
            }
            let mut blocks = Vec::with_capacity(n_blocks);
            let mut prev_max = Timestamp::MIN;
            for block_idx in 0..n_blocks {
                let info = dcdb_compress::peek_frame(buf)
                    .map_err(|e| bad(&format!("bad SSTable block: {e}")))?;
                if info.count == 0 || info.min_ts < prev_max {
                    return Err(bad("SSTable blocks out of order"));
                }
                prev_max = info.max_ts;
                min_ts = min_ts.min(info.min_ts);
                max_ts = max_ts.max(info.max_ts);
                total += info.count;
                blocks.push(BlockRef {
                    inner: Arc::new(BlockInner {
                        min_ts: info.min_ts,
                        max_ts: info.max_ts,
                        count: info.count,
                        frame: buf[..info.total_len].to_vec(),
                        sid,
                        block_idx: block_idx as u32,
                        ctx: Arc::clone(&ctx),
                    }),
                });
                buf.advance(info.total_len);
            }
            runs.insert(sid, blocks);
        }
        if total != n_entries {
            return Err(bad("SSTable entry count mismatch"));
        }
        Ok(SsTable { runs, len: total, min_ts, max_ts, ctx })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reading::RAW_READING_BYTES;

    fn sid(n: u16) -> SensorId {
        SensorId::from_fields(&[7, n]).unwrap()
    }

    /// Append `s`'s readings in `range` to `out`, read through the store's
    /// one read path over this table alone.
    fn query(t: &SsTable, s: SensorId, range: TimeRange, out: &mut Vec<Reading>) {
        let runs = vec![crate::SnapshotRun::Blocks(t.blocks_for(s, range))];
        let snapshot = crate::SeriesSnapshot { runs, drop_ranges: Vec::new() };
        out.extend(crate::SeriesIter::new(snapshot, range));
    }

    fn table() -> SsTable {
        let mut entries = Vec::new();
        for s in 1..=3u16 {
            for ts in (0..100).step_by(10) {
                entries.push((sid(s), ts as Timestamp, (s as f64) * 1000.0 + ts as f64));
            }
        }
        entries.sort_by_key(|&(s, t, _)| (s, t));
        SsTable::from_sorted(entries)
    }

    #[test]
    fn query_range_subset() {
        let t = table();
        let mut out = Vec::new();
        query(&t, sid(2), TimeRange::new(25, 55), &mut out);
        assert_eq!(out.iter().map(|r| r.ts).collect::<Vec<_>>(), vec![30, 40, 50]);
        assert_eq!(out[0].value, 2030.0);
    }

    #[test]
    fn query_missing_sensor_is_empty() {
        let t = table();
        let mut out = Vec::new();
        query(&t, sid(99), TimeRange::all(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn min_max_ts() {
        let t = table();
        assert_eq!(t.min_ts(), 0);
        assert_eq!(t.max_ts(), 90);
        assert_eq!(t.len(), 30);
        assert!(!t.is_empty());
    }

    #[test]
    fn latest_per_sensor() {
        let t = table();
        assert_eq!(t.latest(sid(1)).unwrap().ts, 90);
        assert!(t.latest(sid(9)).is_none());
    }

    #[test]
    fn merge_newest_wins() {
        let old = SsTable::from_sorted(vec![(sid(1), 10, 1.0), (sid(1), 20, 2.0)]);
        let new = SsTable::from_sorted(vec![(sid(1), 20, 99.0), (sid(1), 30, 3.0)]);
        let merged = SsTable::merge(&[&old, &new], |_, _| false);
        let mut out = Vec::new();
        query(&merged, sid(1), TimeRange::all(), &mut out);
        assert_eq!(
            out.iter().map(|r| (r.ts, r.value)).collect::<Vec<_>>(),
            vec![(10, 1.0), (20, 99.0), (30, 3.0)]
        );
    }

    #[test]
    fn merge_applies_drop_filter() {
        let a = SsTable::from_sorted(vec![(sid(1), 10, 1.0), (sid(1), 20, 2.0)]);
        let merged = SsTable::merge(&[&a], |_, ts| ts < 15);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged.min_ts(), 20);
    }

    #[test]
    fn binary_roundtrip() {
        let t = table();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let t2 = SsTable::read_from(&mut &buf[..]).unwrap();
        assert_eq!(t2.len(), t.len());
        let mut out1 = Vec::new();
        let mut out2 = Vec::new();
        query(&t, sid(3), TimeRange::all(), &mut out1);
        query(&t2, sid(3), TimeRange::all(), &mut out2);
        assert_eq!(out1, out2);
    }

    #[test]
    fn read_rejects_garbage() {
        let invalid = |image: &[u8]| {
            let err =
                SsTable::read_from(&mut &image[..]).expect_err("malformed image must not load");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        };
        invalid(b"not a table");
        // retired and unknown magics, each ahead of a header that claims
        // u64::MAX entries: nothing may multiply or allocate from it
        for magic in [b"DCDBSST1", b"DCDBSST2", b"DCDBSST4", b"\xff\x00\x7f\x80\x01\xfe\x10\xef"] {
            let mut image = magic.to_vec();
            invalid(&image);
            image.extend_from_slice(&u64::MAX.to_be_bytes());
            invalid(&image);
            image.extend_from_slice(&u64::MAX.to_be_bytes());
            invalid(&image);
        }
        // a valid magic ahead of hostile counts
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&u64::MAX.to_be_bytes());
        image.extend_from_slice(&u64::MAX.to_be_bytes());
        invalid(&image);
        image.extend_from_slice(&sid(1).raw().to_be_bytes());
        image.extend_from_slice(&u32::MAX.to_be_bytes());
        invalid(&image);
        // every truncation of a valid image
        let mut buf = Vec::new();
        table().write_to(&mut buf).unwrap();
        assert!(SsTable::read_from(&mut &buf[..]).is_ok());
        for len in 0..buf.len() {
            invalid(&buf[..len]);
        }
    }

    #[test]
    fn on_disk_format_compresses_and_loads_lazily() {
        // a realistic run: fixed interval, slowly-varying values
        let entries: Vec<(SensorId, Timestamp, f64)> = (0..2000)
            .map(|i| (sid(1), i as Timestamp * 1_000_000_000, 240.0 + (i % 5) as f64))
            .collect();
        let t = SsTable::from_sorted(entries);
        let mut v3 = Vec::new();
        t.write_to(&mut v3).unwrap();
        assert_eq!(&v3[..8], b"DCDBSST3");
        let raw = t.len() * RAW_READING_BYTES;
        assert!(v3.len() * 4 < raw, "v3 ({}) should be ≥ 4× smaller than raw ({raw})", v3.len());
        let t2 = SsTable::read_from(&mut &v3[..]).unwrap();
        assert_eq!(t2.len(), t.len());
        // loading performed zero decompression
        assert_eq!(t2.blocks_decoded(), 0);
        let mut a = Vec::new();
        let mut b = Vec::new();
        query(&t, sid(1), TimeRange::all(), &mut a);
        query(&t2, sid(1), TimeRange::all(), &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn narrow_query_decodes_only_intersecting_blocks() {
        // 4096 readings = 8 blocks of BLOCK_LEN
        let entries: Vec<(SensorId, Timestamp, f64)> =
            (0..4096).map(|i| (sid(1), i as Timestamp, i as f64)).collect();
        let t = SsTable::from_sorted(entries);
        assert_eq!(t.block_count(), 8);
        assert_eq!(t.blocks_decoded(), 0);
        let mut out = Vec::new();
        // a range inside one block
        query(&t, sid(1), TimeRange::new(10, 20), &mut out);
        assert_eq!(out.len(), 10);
        assert_eq!(t.blocks_decoded(), 1);
        // a range spanning two blocks
        let mut out = Vec::new();
        query(&t, sid(1), TimeRange::new(500, 600), &mut out);
        assert_eq!(out.len(), 100);
        assert_eq!(t.blocks_decoded(), 3);
        // a miss decodes nothing
        let mut out = Vec::new();
        query(&t, sid(1), TimeRange::new(10_000, 20_000), &mut out);
        assert!(out.is_empty());
        assert_eq!(t.blocks_decoded(), 3);
    }

    #[test]
    fn blocks_for_exposes_pushdown_headers() {
        let entries: Vec<(SensorId, Timestamp, f64)> =
            (0..1024).map(|i| (sid(1), i as Timestamp, 0.0)).collect();
        let t = SsTable::from_sorted(entries);
        let blocks = t.blocks_for(sid(1), TimeRange::all());
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].min_ts(), 0);
        assert_eq!(blocks[0].max_ts(), 511);
        assert_eq!(blocks[0].count(), BLOCK_LEN);
        assert_eq!(blocks[1].min_ts(), 512);
        assert_eq!(t.blocks_decoded(), 0, "blocks_for is metadata-only");
        assert!(t.blocks_for(sid(1), TimeRange::new(0, 512)).len() == 1);
        assert!(t.blocks_for(sid(2), TimeRange::all()).is_empty());
    }

    #[test]
    fn corrupted_v3_payload_rejected_at_load() {
        // bit rot inside a compressed payload must surface as InvalidData
        // when reading the file — not as a panic at first query
        let entries: Vec<(SensorId, Timestamp, f64)> =
            (0..1500).map(|i| (sid(1), i as Timestamp, 240.0)).collect();
        let mut buf = Vec::new();
        SsTable::from_sorted(entries).write_to(&mut buf).unwrap();
        let mut rotted = buf.clone();
        let mid = rotted.len() / 2;
        rotted[mid] ^= 0x40;
        assert!(SsTable::read_from(&mut &rotted[..]).is_err());
        // pristine image still loads
        assert!(SsTable::read_from(&mut &buf[..]).is_ok());
    }

    #[test]
    fn v3_preserves_special_values() {
        let entries = vec![
            (sid(1), 0, f64::NAN),
            (sid(1), 1, f64::INFINITY),
            (sid(1), 2, -0.0),
            (sid(2), i64::MIN, f64::NEG_INFINITY),
            (sid(2), i64::MAX, 1e-300),
        ];
        let t = SsTable::from_sorted(entries);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let t2 = SsTable::read_from(&mut &buf[..]).unwrap();
        let mut out = Vec::new();
        query(&t2, sid(1), TimeRange::all(), &mut out);
        assert!(out[0].value.is_nan());
        assert_eq!(out[1].value, f64::INFINITY);
        assert!(out[2].value == 0.0 && out[2].value.is_sign_negative());
        // TimeRange::all() is half-open, so ts == i64::MAX only shows in latest()
        let mut out = Vec::new();
        query(&t2, sid(2), TimeRange::all(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ts, i64::MIN);
        assert_eq!(t2.latest(sid(2)).unwrap().ts, i64::MAX);
    }

    #[test]
    fn cached_decode_counts_misses_only() {
        let entries: Vec<(SensorId, Timestamp, f64)> =
            (0..2048).map(|i| (sid(1), i as Timestamp, i as f64)).collect();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let t = SsTable::from_sorted_cached(entries, Some(Arc::clone(&cache)));
        let mut cold = Vec::new();
        query(&t, sid(1), TimeRange::new(0, 600), &mut cold);
        assert_eq!(t.blocks_decoded(), 2, "cold query decodes the two intersecting blocks");
        let mut warm = Vec::new();
        query(&t, sid(1), TimeRange::new(0, 600), &mut warm);
        assert_eq!(t.blocks_decoded(), 2, "warm query is served from the cache");
        assert_eq!(cold, warm);
        assert_eq!(t.blocks_corrupt(), 0);
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.used_readings, 2 * BLOCK_LEN as u64);
    }

    #[test]
    fn tables_never_share_cache_entries() {
        // two tables with identical (sid, block_idx) layouts but different
        // payloads must stay distinct in a shared cache
        let cache = Arc::new(BlockCache::new(1 << 20));
        let t1 = SsTable::from_sorted_cached(
            (0..100).map(|i| (sid(1), i as Timestamp, 1.0)).collect(),
            Some(Arc::clone(&cache)),
        );
        let t2 = SsTable::from_sorted_cached(
            (0..100).map(|i| (sid(1), i as Timestamp, 2.0)).collect(),
            Some(Arc::clone(&cache)),
        );
        let mut a = Vec::new();
        let mut b = Vec::new();
        query(&t1, sid(1), TimeRange::all(), &mut a);
        query(&t2, sid(1), TimeRange::all(), &mut b);
        // warm reads
        query(&t1, sid(1), TimeRange::all(), &mut a);
        query(&t2, sid(1), TimeRange::all(), &mut b);
        assert!(a.iter().take(100).all(|r| r.value == 1.0));
        assert!(a.iter().skip(100).all(|r| r.value == 1.0));
        assert!(b.iter().all(|r| r.value == 2.0));
        assert_eq!(t1.blocks_decoded() + t2.blocks_decoded(), 2);
    }

    #[test]
    fn empty_table() {
        let t = SsTable::from_sorted(Vec::new());
        assert!(t.is_empty());
        assert_eq!(t.sensors().count(), 0);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        assert!(SsTable::read_from(&mut &buf[..]).unwrap().is_empty());
    }
}
