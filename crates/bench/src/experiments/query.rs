//! Query pushdown study: windowed-aggregation latency with lazy block
//! decode versus the pre-`dcdb-query` full-decode path.
//!
//! A day of simulated 1 Hz sensor data (per workload: the power and
//! instruction sensors of a `dcdb-sim` node) is flushed into several
//! SSTable runs of compressed [`dcdb_store::sstable::BLOCK_LEN`]-reading
//! blocks.  A
//! dashboard-style query — one hour of the day, 1-minute windows — then
//! runs two ways:
//!
//! * **pushdown** — [`QueryEngine::aggregate`]: only blocks whose
//!   `(min_ts, max_ts)` headers intersect the hour are decompressed,
//! * **full decode** — what the store did before this subsystem existed:
//!   materialise the *entire* series (`query_range` over all time, decoding
//!   every block), slice the hour out, aggregate.
//!
//! Expected shape: both produce bit-identical window values; pushdown
//! decodes ~4–5% of the blocks and wins latency by roughly the same factor
//! (the decode-counter columns make the mechanism visible, the timing
//! columns the effect).

use std::sync::Arc;
use std::time::Instant;

use dcdb_query::{window_aggregate, AggFn, QueryEngine, SensorGroup};

use super::fan_in;
use dcdb_sim::workloads::BehaviorTrace;
use dcdb_sim::{Arch, Workload};
use dcdb_store::reading::TimeRange;
use dcdb_store::{NodeConfig, StoreCluster};

/// Sampling interval of the simulated sensors (1 s).
pub const INTERVAL_NS: i64 = 1_000_000_000;
/// Readings per series: one day at 1 Hz.
pub const SERIES_LEN: usize = 86_400;
/// Queried slice: one hour of the day.
pub const QUERY_LEN: usize = 3_600;
/// Aggregation window: one minute.
pub const WINDOW_NS: i64 = 60 * INTERVAL_NS;
/// Timing repetitions (best-of to shrug off scheduler noise).
const REPS: usize = 5;

/// Results for one simulated sensor series.
#[derive(Debug, Clone)]
pub struct QueryReport {
    /// Workload driving the simulated node.
    pub workload: &'static str,
    /// Which sensor of the node was recorded.
    pub sensor: &'static str,
    /// Readings stored for the sensor.
    pub readings: usize,
    /// Compressed blocks the sensor's runs hold.
    pub blocks_total: u64,
    /// Blocks decompressed by the pushdown aggregate.
    pub blocks_pushdown: u64,
    /// Blocks decompressed by the full-decode baseline.
    pub blocks_full: u64,
    /// Pushdown aggregate latency, seconds (best of `REPS` repetitions).
    pub pushdown_s: f64,
    /// Full-decode aggregate latency, seconds (best of `REPS` repetitions).
    pub full_s: f64,
    /// Output windows produced.
    pub windows: usize,
    /// Window values identical between the two paths?
    pub identical: bool,
}

impl QueryReport {
    /// Latency win of pushdown over full decode.
    pub fn speedup(&self) -> f64 {
        self.full_s.max(1e-12) / self.pushdown_s.max(1e-12)
    }

    /// Readings the pushdown path effectively serves per second (the whole
    /// stored series divided by the query latency).
    pub fn readings_per_s(&self) -> f64 {
        self.readings as f64 / self.pushdown_s.max(1e-12)
    }
}

fn measure(workload: Workload, name: &'static str) -> Vec<QueryReport> {
    let mut trace = BehaviorTrace::new(workload, Arch::Skylake.spec(), INTERVAL_NS, 11);
    let samples = trace.take(SERIES_LEN);
    let power: Vec<f64> = samples.iter().map(|s| s.power_w.round()).collect();
    let instr: Vec<f64> = samples.iter().map(|s| s.instructions_per_core.round()).collect();
    vec![measure_series(name, "power_w", &power), measure_series(name, "instructions", &instr)]
}

fn measure_series(workload: &'static str, sensor: &'static str, values: &[f64]) -> QueryReport {
    // several runs, like a live node that flushed a few times over the day
    let cluster = Arc::new(StoreCluster::new(
        NodeConfig { memtable_flush_entries: SERIES_LEN / 4, ..Default::default() },
        dcdb_sid::PartitionMap::prefix(1, 3),
        1,
    ));
    let sid = dcdb_sid::SensorId::from_fields(&[2]).expect("static sid");
    for (i, &v) in values.iter().enumerate() {
        cluster.insert(sid, i as i64 * INTERVAL_NS, v);
    }
    cluster.node(0).flush();

    // the dashboard hour: 20:00–21:00 of the simulated day
    let start = (20 * 3600) as i64 * INTERVAL_NS;
    let range = TimeRange::new(start, start + QUERY_LEN as i64 * INTERVAL_NS);
    let engine = QueryEngine::new(Arc::clone(&cluster), 0);

    let mut pushdown_s = f64::INFINITY;
    let mut pushed = Vec::new();
    let base = cluster.blocks_decoded();
    for _ in 0..REPS {
        let t = Instant::now();
        pushed = fan_in(&engine, &[(sid, 1.0)], range, WINDOW_NS, AggFn::Avg);
        pushdown_s = pushdown_s.min(t.elapsed().as_secs_f64());
    }
    let blocks_pushdown = (cluster.blocks_decoded() - base) / REPS as u64;

    let mut full_s = f64::INFINITY;
    let mut full = Vec::new();
    let base = cluster.blocks_decoded();
    for _ in 0..REPS {
        let t = Instant::now();
        // the pre-pushdown query path: decode the whole series, then window
        let everything = cluster.query(sid, TimeRange::all());
        full = window_aggregate(
            everything.into_iter().filter(|r| range.contains(r.ts)),
            WINDOW_NS,
            AggFn::Avg,
        );
        full_s = full_s.min(t.elapsed().as_secs_f64());
    }
    let blocks_full = (cluster.blocks_decoded() - base) / REPS as u64;

    let identical = pushed.len() == full.len()
        && pushed
            .iter()
            .zip(&full)
            .all(|(a, b)| a.ts == b.ts && a.value.to_bits() == b.value.to_bits());

    QueryReport {
        workload,
        sensor,
        readings: values.len(),
        blocks_total: cluster.block_count() as u64,
        blocks_pushdown,
        blocks_full,
        pushdown_s,
        full_s,
        windows: pushed.len(),
        identical,
    }
}

/// Run the study across the workload suite.
pub fn run() -> Vec<QueryReport> {
    let mut out = Vec::new();
    out.extend(measure(Workload::Hpl, "HPL"));
    out.extend(measure(Workload::Lammps, "LAMMPS"));
    out
}

/// Racks in the group-by study.
pub const GROUPBY_RACKS: usize = 8;
/// Nodes (power sensors) per rack.
pub const GROUPBY_NODES: usize = 4;

/// Results of the group-by study: per-rack grouped aggregation over the
/// 1-day sim workload, serial versus parallel group execution, against the
/// ungrouped whole-tree fan-in.
#[derive(Debug, Clone)]
pub struct GroupByReport {
    /// Racks (= groups).
    pub racks: usize,
    /// Power sensors per rack.
    pub nodes_per_rack: usize,
    /// Total readings stored.
    pub readings: usize,
    /// Worker threads the parallel run used.
    pub threads: usize,
    /// Grouped aggregation, groups evaluated serially (best-of reps), s.
    pub serial_s: f64,
    /// Grouped aggregation, groups evaluated in parallel, s.
    pub parallel_s: f64,
    /// Ungrouped whole-tree fan-in (one series), s.
    pub fanin_s: f64,
    /// Blocks decoded by one grouped run.
    pub blocks_grouped: u64,
    /// Blocks decoded by one ungrouped fan-in run.
    pub blocks_fanin: u64,
    /// Parallel results bit-identical to serial?
    pub identical: bool,
}

impl GroupByReport {
    /// Speedup of parallel over serial group execution.
    pub fn parallel_speedup(&self) -> f64 {
        self.serial_s.max(1e-12) / self.parallel_s.max(1e-12)
    }
}

/// Run the group-by study: a [`GROUPBY_RACKS`]×[`GROUPBY_NODES`] sensor
/// tree with one simulated day of 1 Hz power data per sensor, queried as
/// "average power per rack over the day in 5-minute windows".
pub fn run_groupby() -> GroupByReport {
    // one day-long HPL power trace, offset per node so series differ
    let mut trace = BehaviorTrace::new(Workload::Hpl, Arch::Skylake.spec(), INTERVAL_NS, 23);
    let power: Vec<f64> = trace.take(SERIES_LEN).iter().map(|s| s.power_w.round()).collect();

    let cluster = Arc::new(StoreCluster::new(
        NodeConfig { memtable_flush_entries: SERIES_LEN, ..Default::default() },
        dcdb_sid::PartitionMap::prefix(1, 2),
        1,
    ));
    let sid = |rack: usize, node: usize| {
        dcdb_sid::SensorId::from_fields(&[5, rack as u16 + 1, node as u16 + 1]).expect("static sid")
    };
    for rack in 0..GROUPBY_RACKS {
        for node in 0..GROUPBY_NODES {
            let offset = (rack * GROUPBY_NODES + node) as f64;
            for (i, &v) in power.iter().enumerate() {
                cluster.insert(sid(rack, node), i as i64 * INTERVAL_NS, v + offset);
            }
            cluster.node(0).flush();
        }
    }

    let engine = QueryEngine::new(Arc::clone(&cluster), 0);
    let serial_engine = QueryEngine::new(Arc::clone(&cluster), 1);
    let range = TimeRange::new(0, SERIES_LEN as i64 * INTERVAL_NS);
    let window = 300 * INTERVAL_NS; // 5-minute windows
    let groups: Vec<SensorGroup<usize>> = (0..GROUPBY_RACKS)
        .map(|rack| SensorGroup {
            key: rack,
            sids: (0..GROUPBY_NODES).map(|node| (sid(rack, node), 1.0)).collect(),
        })
        .collect();
    let threads = dcdb_query::exec::default_parallelism();

    let mut serial_s = f64::INFINITY;
    let mut serial = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        (serial, _) = serial_engine.aggregate(groups.clone(), range, window, AggFn::Avg, false);
        serial_s = serial_s.min(t.elapsed().as_secs_f64());
    }
    let base = cluster.blocks_decoded();
    let mut parallel_s = f64::INFINITY;
    let mut parallel = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        (parallel, _) = engine.aggregate(groups.clone(), range, window, AggFn::Avg, false);
        parallel_s = parallel_s.min(t.elapsed().as_secs_f64());
    }
    let blocks_grouped = (cluster.blocks_decoded() - base) / 3;

    let all: Vec<(dcdb_sid::SensorId, f64)> =
        groups.iter().flat_map(|g| g.sids.iter().copied()).collect();
    let base = cluster.blocks_decoded();
    let mut fanin_s = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        fan_in(&engine, &all, range, window, AggFn::Avg);
        fanin_s = fanin_s.min(t.elapsed().as_secs_f64());
    }
    let blocks_fanin = (cluster.blocks_decoded() - base) / 3;

    let identical = serial.len() == parallel.len()
        && serial.iter().zip(&parallel).all(|((ka, a), (kb, b))| {
            ka == kb
                && a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.ts == y.ts && x.value.to_bits() == y.value.to_bits())
        });

    GroupByReport {
        racks: GROUPBY_RACKS,
        nodes_per_rack: GROUPBY_NODES,
        readings: GROUPBY_RACKS * GROUPBY_NODES * SERIES_LEN,
        threads,
        serial_s,
        parallel_s,
        fanin_s,
        blocks_grouped,
        blocks_fanin,
        identical,
    }
}

/// Render the group-by report.
pub fn render_groupby(r: &GroupByReport) -> String {
    let rows = vec![vec![
        format!("{}x{}", r.racks, r.nodes_per_rack),
        r.readings.to_string(),
        r.threads.to_string(),
        format!("{:.1}", r.serial_s * 1e3),
        format!("{:.1}", r.parallel_s * 1e3),
        format!("{:.2}x", r.parallel_speedup()),
        format!("{:.1}", r.fanin_s * 1e3),
        r.blocks_grouped.to_string(),
        r.blocks_fanin.to_string(),
        if r.identical { "yes" } else { "NO" }.to_string(),
    ]];
    crate::report::table(
        &[
            "racks",
            "readings",
            "threads",
            "serial ms",
            "parallel ms",
            "speedup",
            "fan-in ms",
            "blk grp",
            "blk fan",
            "identical",
        ],
        &rows,
    )
}

/// Render the report table.
pub fn render(reports: &[QueryReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.sensor.to_string(),
                r.readings.to_string(),
                r.blocks_total.to_string(),
                r.blocks_pushdown.to_string(),
                r.blocks_full.to_string(),
                format!("{:.0}", r.pushdown_s * 1e6),
                format!("{:.0}", r.full_s * 1e6),
                format!("{:.1}x", r.speedup()),
                format!("{:.0}", r.readings_per_s() / 1e6),
                if r.identical { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    crate::report::table(
        &[
            "workload",
            "sensor",
            "readings",
            "blocks",
            "dec push",
            "dec full",
            "push us",
            "full us",
            "speedup",
            "Mr/s",
            "identical",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_store::sstable::BLOCK_LEN;

    #[test]
    fn pushdown_decodes_a_fraction_of_the_blocks() {
        let reports = run();
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert!(r.identical, "{}/{}: pushdown diverged from full decode", r.workload, r.sensor);
            assert_eq!(r.windows, QUERY_LEN / 60, "{}/{}", r.workload, r.sensor);
            // one day at 1 Hz: four flushed runs of BLOCK_LEN-reading blocks
            let expected = 4 * (SERIES_LEN / 4).div_ceil(BLOCK_LEN) as u64;
            assert_eq!(r.blocks_total, expected);
            // the full path decodes every block, pushdown only the hour's
            assert_eq!(r.blocks_full, r.blocks_total);
            let max_intersecting = (QUERY_LEN / BLOCK_LEN + 2) as u64;
            assert!(
                r.blocks_pushdown <= max_intersecting,
                "{}/{}: pushdown decoded {} blocks, expected ≤ {max_intersecting}",
                r.workload,
                r.sensor,
                r.blocks_pushdown
            );
            assert!(r.blocks_pushdown * 10 <= r.blocks_full, "no real pushdown win");
        }
    }

    #[test]
    fn groupby_parallel_is_exact_and_preserves_pushdown() {
        let r = run_groupby();
        assert!(r.identical, "parallel grouped results diverged from serial");
        assert_eq!(r.blocks_grouped, r.blocks_fanin, "grouping changed the decoded-block count");
        assert_eq!(r.readings, GROUPBY_RACKS * GROUPBY_NODES * SERIES_LEN);
        // no wall-clock assertion here: this runs unoptimised under
        // `cargo test` next to other test binaries, where timing bars
        // flake.  The release `query` bench bin (a dedicated CI step)
        // enforces the >= 2x parallel speedup on >= 4 cores.
    }

    #[test]
    fn pushdown_is_measurably_faster() {
        let reports = run();
        // 10x fewer blocks decoded must show up as wall-clock speedup;
        // the margin is generous so scheduler noise cannot flake the test
        for r in &reports {
            assert!(
                r.speedup() > 1.5,
                "{}/{}: pushdown {:.1}us vs full {:.1}us — no speedup",
                r.workload,
                r.sensor,
                r.pushdown_s * 1e6,
                r.full_s * 1e6
            );
        }
    }
}
