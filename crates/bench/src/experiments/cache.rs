//! Hot-block cache + intra-group parallel fan-in study.
//!
//! Two measurements of the query hot path introduced with the decoded-block
//! cache and the chunked fan-in executor:
//!
//! * **Dashboard refresh loop** ([`run_refresh`]) — the paper's continuous
//!   monitoring pattern: the same 1-hour panel over a day of 1 Hz data is
//!   queried repeatedly.  Without a cache every refresh re-decodes every
//!   intersecting block; with a cache the *first* (cold) refresh decodes
//!   them and every warm refresh is a hash lookup — decodes ≈ 0, latency
//!   several times lower.
//! * **Fan-in thread scaling** ([`run_fanin`]) — a single fat group (one
//!   rack of [`FANIN_SENSORS`] power sensors) aggregated over the day at
//!   increasing worker-thread counts.  Pre-chunking, a single group ran
//!   serially (`parallel_speedup ≈ 1.0` in `BENCH_query.json`); with
//!   [`dcdb_query::FANIN_CHUNK`]-sensor chunks the same query scales with
//!   cores, bit-identically to the serial run.

use std::sync::Arc;
use std::time::Instant;

use dcdb_query::{AggFn, QueryEngine};

use super::fan_in;
use dcdb_sim::workloads::BehaviorTrace;
use dcdb_sim::{Arch, Workload};
use dcdb_store::reading::TimeRange;
use dcdb_store::{NodeConfig, StoreCluster};

/// Sampling interval of the simulated sensors (1 s).
pub const INTERVAL_NS: i64 = 1_000_000_000;
/// Readings per series: one day at 1 Hz.
pub const SERIES_LEN: usize = 86_400;
/// The dashboard panel: one hour, 1-minute windows.
pub const PANEL_LEN: usize = 3_600;
/// Aggregation window of the panel.
pub const WINDOW_NS: i64 = 60 * INTERVAL_NS;
/// Warm refreshes measured after the cold one.
pub const REFRESHES: usize = 8;
/// Sensors in the fan-in scaling study's single group.
pub const FANIN_SENSORS: usize = 32;
/// Cache budget used by the study: 8 MiB of decoded readings.
pub const CACHE_READINGS: usize = 512 * 1024;

/// One simulated day of HPL power values — deliberately *not* rounded: the
/// cache study wants the realistic full-precision decode cost, not the
/// best-case compressibility the compression studies round for.
fn power_day(seed: u64) -> Vec<f64> {
    let mut trace = BehaviorTrace::new(Workload::Hpl, Arch::Skylake.spec(), INTERVAL_NS, seed);
    trace.take(SERIES_LEN).iter().map(|s| s.power_w).collect()
}

fn cluster_with_day(cache_readings: usize, sensors: usize) -> Arc<StoreCluster> {
    let cluster = Arc::new(StoreCluster::new(
        NodeConfig {
            // several runs, like a live node that flushed over the day;
            // compaction disabled so the multi-run layout (and with it the
            // per-refresh decode count) stays fixed for the whole study
            memtable_flush_entries: SERIES_LEN / 4,
            compaction_threshold: usize::MAX,
            block_cache_readings: cache_readings,
            ..Default::default()
        },
        dcdb_sid::PartitionMap::prefix(1, 2),
        1,
    ));
    let power = power_day(17);
    for s in 0..sensors {
        let sid = sensor(s);
        for (i, &v) in power.iter().enumerate() {
            cluster.insert(sid, i as i64 * INTERVAL_NS, v + s as f64);
        }
        cluster.node(0).flush();
    }
    cluster
}

fn sensor(n: usize) -> dcdb_sid::SensorId {
    dcdb_sid::SensorId::from_fields(&[6, n as u16 + 1]).expect("static sid")
}

/// Results of the dashboard refresh loop, cache on versus off.
#[derive(Debug, Clone)]
pub struct RefreshReport {
    /// Readings stored for the panel's sensor.
    pub readings: usize,
    /// Compressed blocks the sensor's runs hold.
    pub blocks_total: u64,
    /// Blocks decoded by the first (cold) cached refresh.
    pub blocks_cold: u64,
    /// Blocks decoded across all [`REFRESHES`] warm cached refreshes.
    pub blocks_warm: u64,
    /// Blocks decoded per refresh without a cache.
    pub blocks_uncached: u64,
    /// Cold cached refresh latency, seconds.
    pub cold_s: f64,
    /// Warm cached refresh latency, seconds (best of [`REFRESHES`], like
    /// the query study's best-of timing — scheduler noise on shared
    /// runners must not masquerade as cache behaviour).
    pub warm_s: f64,
    /// Uncached refresh latency, seconds (best of [`REFRESHES`]).
    pub uncached_s: f64,
    /// Cache counters after the loop.
    pub cache: dcdb_store::CacheStats,
    /// Cached results bit-identical to uncached?
    pub identical: bool,
}

impl RefreshReport {
    /// Latency win of a warm cached refresh over an uncached refresh.
    pub fn warm_speedup(&self) -> f64 {
        self.uncached_s.max(1e-12) / self.warm_s.max(1e-12)
    }
}

/// Run the dashboard refresh loop: one panel query, repeated, cache on
/// versus cache off.
pub fn run_refresh() -> RefreshReport {
    let start = (20 * 3600) as i64 * INTERVAL_NS;
    let range = TimeRange::new(start, start + PANEL_LEN as i64 * INTERVAL_NS);

    // --- cache off: every refresh decodes the panel's blocks afresh
    let uncached = cluster_with_day(0, 1);
    let engine = QueryEngine::new(Arc::clone(&uncached), 0);
    let mut uncached_s = f64::INFINITY;
    let mut reference = Vec::new();
    let base = uncached.blocks_decoded();
    for _ in 0..REFRESHES {
        let t = Instant::now();
        reference = fan_in(&engine, &[(sensor(0), 1.0)], range, WINDOW_NS, AggFn::Avg);
        uncached_s = uncached_s.min(t.elapsed().as_secs_f64());
    }
    let blocks_uncached = (uncached.blocks_decoded() - base) / REFRESHES as u64;

    // --- cache on: the cold refresh pays the decode, warm ones do not
    let cached = cluster_with_day(CACHE_READINGS, 1);
    let engine = QueryEngine::new(Arc::clone(&cached), 0);
    let t = Instant::now();
    let cold = fan_in(&engine, &[(sensor(0), 1.0)], range, WINDOW_NS, AggFn::Avg);
    let cold_s = t.elapsed().as_secs_f64();
    let blocks_cold = cached.blocks_decoded();

    let mut warm_s = f64::INFINITY;
    let mut warm = Vec::new();
    for _ in 0..REFRESHES {
        let t = Instant::now();
        warm = fan_in(&engine, &[(sensor(0), 1.0)], range, WINDOW_NS, AggFn::Avg);
        warm_s = warm_s.min(t.elapsed().as_secs_f64());
    }
    let blocks_warm = cached.blocks_decoded() - blocks_cold;

    let bit_eq = |a: &[dcdb_store::Reading], b: &[dcdb_store::Reading]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| x.ts == y.ts && x.value.to_bits() == y.value.to_bits())
    };

    RefreshReport {
        readings: SERIES_LEN,
        blocks_total: cached.block_count() as u64,
        blocks_cold,
        blocks_warm,
        blocks_uncached,
        cold_s,
        warm_s,
        uncached_s,
        cache: cached.cache_stats(),
        identical: bit_eq(&cold, &reference) && bit_eq(&warm, &reference),
    }
}

/// One point of the fan-in thread-scaling curve.
#[derive(Debug, Clone)]
pub struct FaninPoint {
    /// Worker threads used.
    pub threads: usize,
    /// Best-of-reps latency, seconds.
    pub latency_s: f64,
    /// Bit-identical to the single-threaded run?
    pub identical: bool,
}

/// Results of the single-group fan-in scaling study.
#[derive(Debug, Clone)]
pub struct FaninReport {
    /// Sensors in the group.
    pub sensors: usize,
    /// Total readings aggregated per query.
    pub readings: usize,
    /// The host's available parallelism.
    pub available_parallelism: usize,
    /// Latency per thread count (1, 2, 4, ... up to the host's cores).
    pub points: Vec<FaninPoint>,
}

impl FaninReport {
    /// Speedup of the widest run over the serial run.
    pub fn max_speedup(&self) -> f64 {
        let serial = self.points.first().map_or(0.0, |p| p.latency_s);
        let best = self.points.iter().map(|p| p.latency_s).fold(f64::INFINITY, f64::min).max(1e-12);
        serial / best
    }
}

/// Run the fan-in scaling study: one [`FANIN_SENSORS`]-sensor group, full
/// day, 5-minute average, at doubling thread counts.
pub fn run_fanin() -> FaninReport {
    let cluster = cluster_with_day(0, FANIN_SENSORS);
    let range = TimeRange::new(0, SERIES_LEN as i64 * INTERVAL_NS);
    let window = 300 * INTERVAL_NS;
    let sids: Vec<(dcdb_sid::SensorId, f64)> =
        (0..FANIN_SENSORS).map(|s| (sensor(s), 1.0)).collect();

    let cores = dcdb_query::exec::default_parallelism();
    let mut counts = vec![1usize];
    while *counts.last().expect("non-empty") * 2 <= cores {
        counts.push(counts.last().expect("non-empty") * 2);
    }
    if *counts.last().expect("non-empty") != cores {
        counts.push(cores);
    }

    let mut serial: Vec<dcdb_store::Reading> = Vec::new();
    let mut points = Vec::new();
    for &threads in &counts {
        let engine = QueryEngine::new(Arc::clone(&cluster), threads);
        let mut best = f64::INFINITY;
        let mut out = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            out = fan_in(&engine, &sids, range, window, AggFn::Avg);
            best = best.min(t.elapsed().as_secs_f64());
        }
        let identical = if threads == 1 {
            serial = out;
            true
        } else {
            serial.len() == out.len()
                && serial
                    .iter()
                    .zip(&out)
                    .all(|(a, b)| a.ts == b.ts && a.value.to_bits() == b.value.to_bits())
        };
        points.push(FaninPoint { threads, latency_s: best, identical });
    }

    FaninReport {
        sensors: FANIN_SENSORS,
        readings: FANIN_SENSORS * SERIES_LEN,
        available_parallelism: cores,
        points,
    }
}

/// Render the refresh report.
pub fn render_refresh(r: &RefreshReport) -> String {
    let rows = vec![vec![
        r.readings.to_string(),
        r.blocks_total.to_string(),
        r.blocks_uncached.to_string(),
        r.blocks_cold.to_string(),
        r.blocks_warm.to_string(),
        format!("{:.0}", r.uncached_s * 1e6),
        format!("{:.0}", r.cold_s * 1e6),
        format!("{:.0}", r.warm_s * 1e6),
        format!("{:.1}x", r.warm_speedup()),
        format!("{:.0}%", r.cache.hit_rate() * 100.0),
        if r.identical { "yes" } else { "NO" }.to_string(),
    ]];
    crate::report::table(
        &[
            "readings",
            "blocks",
            "dec uncached",
            "dec cold",
            "dec warm",
            "uncached us",
            "cold us",
            "warm us",
            "warm speedup",
            "hit rate",
            "identical",
        ],
        &rows,
    )
}

/// Render the fan-in scaling report.
pub fn render_fanin(r: &FaninReport) -> String {
    let serial = r.points.first().map_or(0.0, |p| p.latency_s);
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                format!("{:.1}", p.latency_s * 1e3),
                format!("{:.2}x", serial / p.latency_s.max(1e-12)),
                if p.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    crate::report::table(&["threads", "latency ms", "speedup", "identical"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_store::sstable::BLOCK_LEN;

    #[test]
    fn warm_refresh_decodes_nothing() {
        let r = run_refresh();
        assert!(r.identical, "cached results diverged from uncached");
        // the hour's blocks fit the cache comfortably, so warm refreshes
        // decode nothing at all
        assert_eq!(r.blocks_warm, 0, "warm refreshes must be decode-free");
        assert_eq!(r.blocks_cold, r.blocks_uncached, "the cold refresh pays the same decodes");
        let max_intersecting = (PANEL_LEN / BLOCK_LEN + 2) as u64;
        assert!(r.blocks_cold <= max_intersecting, "pushdown survived: {}", r.blocks_cold);
        assert!(r.cache.hits > 0);
        // no timing assertion here: unoptimised test builds flake; the
        // release `cache` bench bin enforces the >= 5x warm-refresh win
    }

    #[test]
    fn fanin_scaling_is_exact_for_every_thread_count() {
        let r = run_fanin();
        assert_eq!(r.points.first().map(|p| p.threads), Some(1));
        assert!(r.points.iter().all(|p| p.identical), "chunked fan-in diverged from serial");
        assert_eq!(r.readings, FANIN_SENSORS * SERIES_LEN);
        assert!(r.available_parallelism >= 1);
    }
}
