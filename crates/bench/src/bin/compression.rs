//! Prints the compression study: ratio and throughput of the Gorilla codec
//! on simulated device series (see `experiments::compression`).

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]
fn main() {
    let reports = dcdb_bench::experiments::compression::run();
    println!(
        "Compression study: dcdb-compress on {} simulated 1 Hz series of {} readings\n",
        reports.len(),
        dcdb_bench::experiments::compression::SERIES_LEN,
    );
    print!("{}", dcdb_bench::experiments::compression::render(&reports));
    let min_sstable = reports.iter().map(|r| r.sstable_ratio()).fold(f64::INFINITY, f64::min);
    let min_power = reports
        .iter()
        .filter(|r| r.sensor == "power_w")
        .map(|r| r.payload_ratio())
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nworst SSTable ratio vs. fixed-width tuples: {min_sstable:.1}x \
         | worst power-series payload ratio: {min_power:.1}x (acceptance floor: 4x)"
    );
    dcdb_bench::report::write_csv(
        "compression",
        &[
            "workload",
            "sensor",
            "readings",
            "fixed_payload_bytes",
            "compressed_bytes",
            "payload_ratio",
            "raw_tuple_bytes",
            "sstable_bytes",
            "sstable_ratio",
            "encode_per_s",
            "decode_per_s",
        ],
        &reports
            .iter()
            .map(|r| {
                vec![
                    r.workload.to_string(),
                    r.sensor.to_string(),
                    r.readings.to_string(),
                    r.fixed_payload_bytes.to_string(),
                    r.compressed_bytes.to_string(),
                    format!("{:.2}", r.payload_ratio()),
                    r.raw_tuple_bytes.to_string(),
                    r.sstable_bytes.to_string(),
                    format!("{:.2}", r.sstable_ratio()),
                    format!("{:.0}", r.encode_per_s),
                    format!("{:.0}", r.decode_per_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}
