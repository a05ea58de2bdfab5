//! [`SeriesIter`]: the store's one range-read path, a streaming,
//! pull-based merge of one sensor's runs.
//!
//! A [`SeriesSnapshot`] holds the memtable's in-range slice plus
//! *compressed block handles* for every SSTable run intersecting the range.
//! This iterator performs the k-way merge in timestamp order, decoding a
//! block only when the cursor actually reaches it, applying newest-wins
//! semantics on duplicate timestamps (sources are ordered oldest → newest,
//! the memtable last) and dropping tombstoned/expired readings, without
//! ever materialising the full series.  Raw reads
//! ([`crate::StoreNode::query_range`]) collect it; windowed aggregation
//! folds it.

use std::sync::Arc;

use crate::node::{SeriesSnapshot, SnapshotRun};
use crate::reading::{Reading, TimeRange};
use crate::sstable::{BlockRef, BLOCK_LEN};

/// One merge source: a queue of undecoded blocks plus the shared payload of
/// the block under the cursor, of which `[pos, end)` is in range and not
/// yet consumed.  Block payloads are never copied: the cursor walks the
/// (possibly cache-owned) `Arc` itself.
struct Source {
    blocks: std::vec::IntoIter<BlockRef>,
    current: Arc<[Reading]>,
    pos: usize,
    end: usize,
    peeked: Option<Reading>,
}

impl Source {
    /// The unconsumed in-range readings under the cursor, decoding forward
    /// past blocks that hold none (a block can intersect the range by
    /// header yet hold no in-range reading); `None` once exhausted.
    #[inline]
    fn rest(&mut self, range: TimeRange) -> Option<&[Reading]> {
        while self.pos == self.end {
            // lazy decode: this is the only place payload bytes expand
            self.current = self.blocks.next()?.decode_shared();
            let span = range.span_in(&self.current);
            (self.pos, self.end) = (span.start, span.end);
        }
        Some(&self.current[self.pos..self.end])
    }

    /// Pull the next reading.
    #[inline]
    fn next_reading(&mut self, range: TimeRange) -> Option<Reading> {
        if let Some(r) = self.peeked.take() {
            return Some(r);
        }
        let r = *self.rest(range)?.first()?;
        self.pos += 1;
        Some(r)
    }

    #[inline]
    fn peek(&mut self, range: TimeRange) -> Option<Reading> {
        if self.peeked.is_none() {
            self.peeked = self.next_reading(range);
        }
        self.peeked
    }
}

/// A pull-based iterator over one sensor's readings in `[start, end)`,
/// lazily decoding compressed blocks.  Yields strictly increasing
/// timestamps; duplicate `(ts)` entries across runs resolve newest-wins.
pub struct SeriesIter {
    sources: Vec<Source>,
    drop_ranges: Vec<TimeRange>,
    range: TimeRange,
}

impl SeriesIter {
    /// Build from a snapshot captured by
    /// [`crate::StoreNode::series_snapshot`].
    pub fn new(snapshot: SeriesSnapshot, range: TimeRange) -> SeriesIter {
        let sources = snapshot
            .runs
            .into_iter()
            .map(|run| {
                let (blocks, current): (_, Arc<[Reading]>) = match run {
                    SnapshotRun::Blocks(blocks) => (blocks, Arc::from([])),
                    SnapshotRun::Readings(readings) => (Vec::new(), Arc::from(readings)),
                };
                let end = current.len();
                Source { blocks: blocks.into_iter(), current, pos: 0, end, peeked: None }
            })
            .collect();
        SeriesIter { sources, drop_ranges: snapshot.drop_ranges, range }
    }

    /// True when the snapshot holds exactly one run and nothing is
    /// tombstoned or expired — no duplicate timestamps to resolve, no
    /// readings to drop.
    #[inline]
    fn is_single_run(&self) -> bool {
        self.sources.len() == 1 && self.drop_ranges.is_empty()
    }

    /// Visit every remaining reading, in order, as consecutive slices — the
    /// bulk feed for aggregation.  A single-run snapshot hands out each
    /// block's shared in-range payload as is (the memtable slice, or one
    /// lazily-decoded block, no copy); any other snapshot runs the k-way
    /// merge and hands out its output in [`BLOCK_LEN`]-reading chunks.
    pub fn for_each_slice(mut self, mut f: impl FnMut(&[Reading])) {
        if !self.is_single_run() {
            let mut chunk = Vec::with_capacity(BLOCK_LEN);
            for r in self {
                chunk.push(r);
                if chunk.len() == BLOCK_LEN {
                    f(&chunk);
                    chunk.clear();
                }
            }
            if !chunk.is_empty() {
                f(&chunk);
            }
            return;
        }
        // single-run sources are never peeked: only the merge peeks
        let (range, source) = (self.range, &mut self.sources[0]);
        while let Some(slice) = source.rest(range) {
            f(slice);
            source.pos = source.end;
        }
    }
}

impl Iterator for SeriesIter {
    type Item = Reading;

    // inlinable into the folds of `dcdb-query`, which pull it per reading
    #[inline]
    fn next(&mut self) -> Option<Reading> {
        // Single-run fast path (the common shape after a compaction, and
        // the hot one for warm cache-served queries): one source has no
        // duplicate timestamps to resolve, so skip the k-way merge
        // machinery and pull straight from it.
        if self.is_single_run() {
            return self.sources[0].next_reading(self.range);
        }
        loop {
            // Smallest timestamp across sources; on ties the later (newer)
            // source replaces the earlier one.
            let mut best: Option<Reading> = None;
            for source in self.sources.iter_mut() {
                if let Some(r) = source.peek(self.range) {
                    if best.is_none_or(|b| r.ts <= b.ts) {
                        best = Some(r);
                    }
                }
            }
            let chosen = best?;
            // Consume every source positioned at the chosen timestamp.
            for source in self.sources.iter_mut() {
                if source.peeked.is_some_and(|r| r.ts == chosen.ts) {
                    source.peeked = None;
                }
            }
            if !self.drop_ranges.iter().any(|r| r.contains(chosen.ts)) {
                return Some(chosen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeConfig, StoreNode};
    use dcdb_sid::SensorId;

    fn sid(n: u16) -> SensorId {
        SensorId::from_fields(&[5, n]).unwrap()
    }

    fn iter_for(node: &StoreNode, s: SensorId, range: TimeRange) -> SeriesIter {
        SeriesIter::new(node.series_snapshot(s, range), range)
    }

    #[test]
    fn merges_memtable_and_sstables_in_order() {
        let node = StoreNode::new(NodeConfig { memtable_flush_entries: 8, ..Default::default() });
        for ts in 0..20 {
            node.insert(sid(1), ts, ts as f64);
        }
        let got: Vec<(i64, f64)> =
            iter_for(&node, sid(1), TimeRange::all()).map(|r| (r.ts, r.value)).collect();
        let want: Vec<(i64, f64)> = (0..20).map(|ts| (ts, ts as f64)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn newest_source_wins_duplicates() {
        let node = StoreNode::default();
        node.insert(sid(1), 10, 1.0);
        node.flush(); // older sstable
        node.insert(sid(1), 10, 2.0); // newer memtable entry
        let got: Vec<Reading> = iter_for(&node, sid(1), TimeRange::all()).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value, 2.0);
    }

    #[test]
    fn range_is_respected() {
        let node = StoreNode::default();
        for ts in 0..100 {
            node.insert(sid(1), ts, 0.0);
        }
        node.flush();
        let got: Vec<Reading> = iter_for(&node, sid(1), TimeRange::new(25, 50)).collect();
        assert_eq!(got.first().unwrap().ts, 25);
        assert_eq!(got.last().unwrap().ts, 49);
        assert_eq!(got.len(), 25);
    }

    #[test]
    fn tombstones_filtered() {
        let node = StoreNode::default();
        for ts in 0..10 {
            node.insert(sid(1), ts, 1.0);
        }
        node.flush();
        node.delete_range(sid(1), TimeRange::new(3, 7));
        let got: Vec<i64> = iter_for(&node, sid(1), TimeRange::all()).map(|r| r.ts).collect();
        assert_eq!(got, vec![0, 1, 2, 7, 8, 9]);
    }

    #[test]
    fn blocks_decode_lazily_during_iteration() {
        let node = StoreNode::default();
        for ts in 0..2048 {
            node.insert(sid(1), ts, ts as f64);
        }
        node.flush(); // 4 blocks of 512
        let mut it = iter_for(&node, sid(1), TimeRange::all());
        assert_eq!(node.blocks_decoded(), 0, "construction decodes nothing");
        assert_eq!(it.next().unwrap().ts, 0);
        assert_eq!(node.blocks_decoded(), 1, "only the first block so far");
        // stop after the first block's worth: later blocks never decode
        for _ in 0..500 {
            it.next();
        }
        assert_eq!(node.blocks_decoded(), 1);
        drop(it);
        assert_eq!(node.blocks_decoded(), 1);
    }

    #[test]
    fn empty_snapshot_yields_nothing() {
        let node = StoreNode::default();
        let got: Vec<Reading> = iter_for(&node, sid(9), TimeRange::all()).collect();
        assert!(got.is_empty());
    }
}
