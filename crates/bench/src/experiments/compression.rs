//! Storage/transport compression study: ratio and throughput of the
//! `dcdb-compress` Gorilla codec on simulated device series.
//!
//! Series are generated by `dcdb-sim`'s workload traces (the synthetic
//! stand-in for SuperMUC-NG power and Perfevents instruction sensors) at a
//! fixed sampling interval, then measured three ways:
//!
//! * **series ratio** — the `dcdb-compress` series bytes vs. the 16-byte
//!   fixed-width MQTT payload records,
//! * **SSTable ratio** — the on-disk (`DCDBSST3`) image vs. 32-byte
//!   fixed-width `<sensor, timestamp, reading>` tuples,
//! * **throughput** — encode and decode rates in readings/s.
//!
//! Expected shape: fixed-interval monitoring series compress well over 4×
//! (power series land around 10–20×), and both codec directions sustain
//! tens of millions of readings per second — compression is nowhere near
//! the ingest bottleneck.

use std::time::Instant;

use dcdb_compress::{decode_series, encode_series, RAW_RECORD_BYTES};
use dcdb_sim::workloads::BehaviorTrace;
use dcdb_sim::{Arch, Workload};
use dcdb_store::reading::{Timestamp, RAW_READING_BYTES};
use dcdb_store::sstable::SsTable;

/// Sampling interval of the simulated sensors (1 s, a common production
/// cadence in the paper's deployments).
pub const INTERVAL_NS: i64 = 1_000_000_000;
/// Readings per series.
pub const SERIES_LEN: usize = 10_000;

/// Results for one simulated sensor series.
#[derive(Debug, Clone)]
pub struct SeriesReport {
    /// Workload driving the simulated node.
    pub workload: &'static str,
    /// Which sensor of the node was recorded.
    pub sensor: &'static str,
    /// Readings in the series.
    pub readings: usize,
    /// Bytes as fixed-width MQTT payload records (16 B each).
    pub fixed_payload_bytes: usize,
    /// Bytes as a compressed series.
    pub compressed_bytes: usize,
    /// Bytes as fixed-width tuples (32 B each).
    pub raw_tuple_bytes: usize,
    /// Bytes of the SSTable image.
    pub sstable_bytes: usize,
    /// Encode throughput, readings/s.
    pub encode_per_s: f64,
    /// Decode throughput, readings/s.
    pub decode_per_s: f64,
}

impl SeriesReport {
    /// Payload-level compression ratio (higher is better).
    pub fn payload_ratio(&self) -> f64 {
        self.fixed_payload_bytes as f64 / self.compressed_bytes as f64
    }

    /// SSTable-level compression ratio vs. fixed-width tuples.
    pub fn sstable_ratio(&self) -> f64 {
        self.raw_tuple_bytes as f64 / self.sstable_bytes as f64
    }
}

fn measure(workload: Workload, name: &'static str) -> Vec<SeriesReport> {
    let mut trace = BehaviorTrace::new(workload, Arch::Skylake.spec(), INTERVAL_NS, 7);
    let samples = trace.take(SERIES_LEN);
    // quantise like the real data sources: IPMI/sysfs power sensors report
    // integer watts, perf counters report integer instruction counts — the
    // sim's continuous model values never reach the Pusher at full `f64`
    // precision
    let power: Vec<(i64, f64)> = samples.iter().map(|s| (s.ts, s.power_w.round())).collect();
    let instr: Vec<(i64, f64)> =
        samples.iter().map(|s| (s.ts, s.instructions_per_core.round())).collect();
    vec![measure_series(name, "power_w", &power), measure_series(name, "instructions", &instr)]
}

fn measure_series(
    workload: &'static str,
    sensor: &'static str,
    series: &[(i64, f64)],
) -> SeriesReport {
    let start = Instant::now();
    let compressed = encode_series(series);
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let decoded = decode_series(&compressed).expect("self-encoded series decodes");
    let decode_s = start.elapsed().as_secs_f64();
    assert_eq!(decoded.len(), series.len(), "lossless roundtrip");

    let sid = dcdb_sid::SensorId::from_fields(&[1]).expect("static sid");
    let entries: Vec<(dcdb_sid::SensorId, Timestamp, f64)> =
        series.iter().map(|&(ts, v)| (sid, ts, v)).collect();
    let table = SsTable::from_sorted(entries);
    let mut image = Vec::new();
    table.write_to(&mut image).expect("in-memory write");

    SeriesReport {
        workload,
        sensor,
        readings: series.len(),
        fixed_payload_bytes: series.len() * RAW_RECORD_BYTES,
        compressed_bytes: compressed.len(),
        raw_tuple_bytes: series.len() * RAW_READING_BYTES,
        sstable_bytes: image.len(),
        encode_per_s: series.len() as f64 / encode_s.max(1e-9),
        decode_per_s: series.len() as f64 / decode_s.max(1e-9),
    }
}

/// Run the study across the workload suite.
pub fn run() -> Vec<SeriesReport> {
    let mut out = Vec::new();
    out.extend(measure(Workload::Hpl, "HPL"));
    out.extend(measure(Workload::Amg, "AMG"));
    out.extend(measure(Workload::Lammps, "LAMMPS"));
    out.extend(measure(Workload::Kripke, "Kripke"));
    out
}

/// Render the report table.
pub fn render(reports: &[SeriesReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.workload.to_string(),
                r.sensor.to_string(),
                r.readings.to_string(),
                r.fixed_payload_bytes.to_string(),
                r.compressed_bytes.to_string(),
                format!("{:.1}x", r.payload_ratio()),
                format!("{:.1}x", r.sstable_ratio()),
                format!("{:.0}", r.encode_per_s / 1e6),
                format!("{:.0}", r.decode_per_s / 1e6),
            ]
        })
        .collect();
    crate::report::table(
        &[
            "workload",
            "sensor",
            "readings",
            "fixed B",
            "compressed B",
            "payload ratio",
            "sstable ratio",
            "enc Mr/s",
            "dec Mr/s",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_interval_series_hit_target_ratio() {
        let reports = run();
        assert_eq!(reports.len(), 8);
        for r in &reports {
            // acceptance floor: ≥ 4× vs. fixed-width tuples
            assert!(
                r.sstable_ratio() >= 4.0,
                "{}/{}: sstable ratio {:.2} below the 4x acceptance floor",
                r.workload,
                r.sensor,
                r.sstable_ratio()
            );
            assert!(r.payload_ratio() > 1.5, "{}/{}: no transport win", r.workload, r.sensor);
        }
        // power series (integer watts, slow drift) compress hard
        for r in reports.iter().filter(|r| r.sensor == "power_w") {
            assert!(
                r.payload_ratio() >= 4.0,
                "{}: power payload ratio {:.2} below 4x",
                r.workload,
                r.payload_ratio()
            );
        }
    }

    #[test]
    fn power_series_compress_better_than_instruction_noise() {
        let reports = run();
        let avg = |sensor: &str| {
            let (sum, n) = reports
                .iter()
                .filter(|r| r.sensor == sensor)
                .fold((0.0, 0), |(s, n), r| (s + r.payload_ratio(), n + 1));
            sum / n as f64
        };
        // power wiggles around a level; instruction counts carry far more
        // entropy per reading
        assert!(avg("power_w") > avg("instructions"));
    }
}
