//! Criterion micro-benchmark of the decoded-block cache: repeated reads of
//! the same SSTable blocks with and without a cache attached.  The cached
//! read degenerates to hash lookups + memcpy; the uncached read pays the
//! Gorilla decode every time.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dcdb_sid::SensorId;
use dcdb_store::reading::{Reading, TimeRange, Timestamp};
use dcdb_store::sstable::SsTable;
use dcdb_store::{BlockCache, SeriesIter, SeriesSnapshot, SnapshotRun};

const READINGS: usize = 8192;

fn table_entries(sid: SensorId) -> Vec<(SensorId, Timestamp, f64)> {
    (0..READINGS)
        .map(|i| (sid, i as i64 * 1_000_000_000, 240.0 + ((i as f64) * 0.05).sin() * 3.0))
        .collect()
}

/// Every reading of `sid` in `table`, through the store's read path.
fn read_all(table: &SsTable, sid: SensorId) -> Vec<Reading> {
    let range = TimeRange::all();
    let runs = vec![SnapshotRun::Blocks(table.blocks_for(sid, range))];
    SeriesIter::new(SeriesSnapshot { runs, drop_ranges: Vec::new() }, range).collect()
}

fn bench_block_reads(c: &mut Criterion) {
    let sid = SensorId::from_fields(&[1, 2]).unwrap();
    let uncached = SsTable::from_sorted(table_entries(sid));
    let cache = Arc::new(BlockCache::new(1 << 20));
    let cached = SsTable::from_sorted_cached(table_entries(sid), Some(cache));
    // warm the cache so the cached case measures steady-state hits
    assert_eq!(read_all(&cached, sid).len(), READINGS);

    let mut g = c.benchmark_group("block_reads");
    g.throughput(Throughput::Elements(READINGS as u64));
    g.bench_function("uncached_8k", |b| b.iter(|| read_all(&uncached, std::hint::black_box(sid))));
    g.bench_function("cached_8k", |b| b.iter(|| read_all(&cached, std::hint::black_box(sid))));
    g.finish();
}

fn bench_window_fold(c: &mut Criterion) {
    // the aggregation work a warm dashboard refresh still pays after the
    // cache removed the decode: fold 3600 readings into 60 windows
    let readings: Vec<dcdb_store::Reading> = (0..3600)
        .map(|i| dcdb_store::Reading::new(i as i64 * 1_000_000_000, 240.0 + (i % 7) as f64))
        .collect();
    let mut g = c.benchmark_group("window_fold");
    g.throughput(Throughput::Elements(readings.len() as u64));
    g.bench_function("avg_3600_into_60", |b| {
        b.iter(|| {
            dcdb_query::window_aggregate(
                std::hint::black_box(&readings).iter().copied(),
                60_000_000_000,
                dcdb_query::AggFn::Avg,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_block_reads, bench_window_fold);
criterion_main!(benches);
