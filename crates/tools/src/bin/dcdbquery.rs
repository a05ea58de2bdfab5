//! `dcdbquery` — query sensor data in CSV form (paper §5.2).
//!
//! ```text
//! dcdbquery --db <dir> [--start NS] [--end NS] [--op integral|derivative|stats]
//!           [--agg FN --window DUR [--group-by N]] [--sizes]
//!           [--cache-mb MB] [--slow-log DUR]
//!           [--maintenance-threads N] [--flush-interval-s S] <topic-or-prefix>...
//! ```
//!
//! `--agg`/`--window` build a `QueryRequest` and run it through the unified
//! `SensorDb::execute` path: `FN` is any `dcdb-query` aggregation (`avg`,
//! `min`, `max`, `sum`, `count`, `stddev`, `p99`, `median`, `rate`, …) and
//! `DUR` a duration like `30s`, `5m`, `1h`.  Topics may be hierarchy
//! *prefixes* — `dcdbquery --agg avg --window 5m /rack0` averages every
//! sensor under `/rack0` per 5-minute window, decoding only the compressed
//! blocks the range touches.  `--group-by N` splits the fan-in at
//! hierarchy level `N` (one output series per rack/node/..., evaluated in
//! parallel) and prints the group key as the first CSV column.
//!
//! `--cache-mb MB` gives the read path a decoded-block cache of `MB`
//! megabytes (repeated panels over the same hot blocks skip the Gorilla
//! decode; 0 = off, the default).  Parallel fan-in and group-by use every
//! core; results are bit-identical to serial evaluation.
//!
//! `--sizes` reports the database's stored (compressed) versus raw
//! fixed-width byte footprint — plus a block-cache capacity/usage line
//! when `--cache-mb` is active and a maintenance line (flush/compaction
//! counters, write stalls) unless `--maintenance-threads 0`.  With
//! `--sizes` topics are optional; when topics are also given the report
//! prints *after* the queries, so the cache hit/miss numbers reflect what
//! they touched.
//!
//! `--maintenance-threads N` / `--flush-interval-s S` configure background
//! flush/compaction maintenance for the opened store (default 1 thread,
//! 0 = synchronous) — mostly relevant to `csvimport`-style bulk
//! loads through the same [`dcdb_tools::open_db_with`] path; `dcdbquery`
//! itself is read-only.
//!
//! `--explain` turns on per-query tracing: after each query's CSV output
//! the span tree (plan / engine fan-in chunks / merge / finalize, with
//! wall times and counter deltas like `blocks_decoded`) prints to stderr.
//! Results are bit-identical with and without it.
//!
//! `--slow-log DUR` arms the slow-query log at threshold `DUR` (`5ms`,
//! `100us`, …): any query exceeding it is captured with its full span
//! tree, and after all queries a report of the offenders prints to
//! stderr.  Unlike `--explain` this only pays the tracing cost for the
//! run and only prints queries that actually crossed the bar — the same
//! ring a long-lived agent serves at `GET /debug/slow_queries`.

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]

use std::sync::Arc;

use dcdb_core::{ops, QueryRequest, SensorDb};
use dcdb_store::reading::{Reading, TimeRange};
use dcdb_tools::{db_sizes, node_config_from_args, open_db_with, Args};

/// Readings of `topic` for the `--op` analyses, or the error line the raw
/// and `--agg` branches print.
fn fetch(db: &Arc<SensorDb>, topic: &str, range: TimeRange) -> Result<Vec<Reading>, String> {
    match db.query(topic, range) {
        Ok(series) => Ok(series.readings),
        Err(e) => Err(format!("dcdbquery: {topic}: {e}")),
    }
}

fn main() {
    let args = Args::from_env();
    let Some(db_dir) = args.get("db") else {
        eprintln!(
            "usage: dcdbquery --db <dir> [--start NS] [--end NS] [--op OP] \
             [--agg FN --window DUR] [--sizes] [--explain] [--cache-mb MB] \
             [--maintenance-threads N] [--flush-interval-s S] <topic>..."
        );
        std::process::exit(2);
    };
    let topics = args.positional_with_bools(&["sizes", "explain"]);
    if topics.is_empty() && !args.has("sizes") {
        eprintln!("dcdbquery: no topics given");
        std::process::exit(2);
    }
    // one request per topic, through the parser every surface shares
    let requests: Result<Vec<QueryRequest>, dcdb_core::QueryError> = topics
        .iter()
        .map(|&topic| {
            let param = |name: &str| if name == "topic" { Some(topic) } else { args.get(name) };
            let req = QueryRequest::from_params(param, TimeRange::all())?;
            Ok(if args.has("explain") { req.traced() } else { req })
        })
        .collect();
    let requests = match requests {
        Ok(requests) => requests,
        Err(e) => {
            eprintln!("dcdbquery: {e}");
            std::process::exit(2);
        }
    };
    let node_cfg = node_config_from_args(&args);
    let db = match open_db_with(std::path::Path::new(db_dir), node_cfg) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("dcdbquery: cannot open {db_dir}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(spec) = args.get("slow-log") {
        match dcdb_query::parse_duration_ns(spec).filter(|&t| t > 0) {
            Some(t) => db.slow_queries().set_threshold_ns(t as u64),
            None => {
                eprintln!("dcdbquery: --slow-log needs a duration like 5ms, 100us");
                std::process::exit(2);
            }
        }
    }
    let print_slow = |db: &Arc<SensorDb>| {
        let slow = db.slow_queries();
        if !slow.armed() {
            return;
        }
        let entries = slow.entries();
        eprintln!(
            "slow queries: {} over {} ns ({} captured total)",
            entries.len(),
            slow.threshold_ns(),
            slow.total_captured()
        );
        for e in entries {
            eprintln!("#{} {} ns  {}", e.seq, e.total_ns, e.summary);
            eprint!("{}", e.trace.render());
        }
    };
    let print_sizes = |db: &Arc<SensorDb>| match db_sizes(db, std::path::Path::new(db_dir)) {
        Ok(sizes) => println!("{}", sizes.render()),
        Err(e) => {
            eprintln!("dcdbquery: sizing database: {e}");
            std::process::exit(1);
        }
    };
    let Some(first) = requests.first() else {
        print_sizes(&db); // --sizes alone
        return;
    };
    if first.agg.is_some() || first.window_ns.is_some() || first.group_by.is_some() {
        let Some(agg) = first.agg else {
            eprintln!("dcdbquery: --agg needs avg|min|max|sum|count|stddev|median|pNN|qX|rate");
            std::process::exit(2);
        };
        if first.window_ns.is_none() {
            eprintln!("dcdbquery: --window needs a duration like 30s, 5m, 1h");
            std::process::exit(2);
        }
        if let Err(e) = first.validate() {
            eprintln!("dcdbquery: {e}");
            std::process::exit(2);
        }
        if first.group_by.is_some() {
            println!("group,window_start,{agg}");
        } else {
            println!("sensor,window_start,{agg}");
        }
        for req in &requests {
            let topic = &req.target;
            match db.execute(req) {
                Ok(resp) => {
                    for group in &resp.series {
                        let label = group.key.as_deref().unwrap_or(&group.series.topic);
                        for r in &group.series.readings {
                            println!("{label},{},{}", r.ts, r.value);
                        }
                    }
                    if let Some(trace) = &resp.trace {
                        // stderr keeps the CSV on stdout machine-readable
                        eprint!("{topic}:\n{}", trace.render());
                    }
                }
                Err(e) => eprintln!("dcdbquery: {topic}: {e}"),
            }
        }
        // after the queries, so the cache line reflects what they hit
        if args.has("sizes") {
            print_sizes(&db);
        }
        print_slow(&db);
        return;
    }
    let range = first.range;
    match args.get("op") {
        None => {
            println!("sensor,timestamp,value");
            for req in &requests {
                let topic = &req.target;
                match db.execute(req) {
                    Ok(resp) => {
                        for group in &resp.series {
                            for r in &group.series.readings {
                                println!("{},{},{}", group.series.topic, r.ts, r.value);
                            }
                        }
                        if let Some(trace) = &resp.trace {
                            eprint!("{topic}:\n{}", trace.render());
                        }
                    }
                    Err(e) => eprintln!("dcdbquery: {topic}: {e}"),
                }
            }
        }
        Some("integral") => {
            println!("sensor,integral");
            for topic in topics {
                match fetch(&db, topic, range) {
                    Ok(readings) => println!("{topic},{}", ops::integral(&readings)),
                    Err(line) => eprintln!("{line}"),
                }
            }
        }
        Some("derivative") => {
            println!("sensor,timestamp,derivative");
            for topic in topics {
                match fetch(&db, topic, range) {
                    Ok(readings) => {
                        for r in ops::derivative(&readings) {
                            println!("{topic},{},{}", r.ts, r.value);
                        }
                    }
                    Err(line) => eprintln!("{line}"),
                }
            }
        }
        Some("stats") => {
            println!("sensor,count,min,max,mean,stddev");
            for topic in topics {
                match fetch(&db, topic, range) {
                    Ok(readings) => {
                        if let Some(s) = ops::stats(&readings) {
                            println!(
                                "{topic},{},{},{},{},{}",
                                s.count, s.min, s.max, s.mean, s.stddev
                            );
                        }
                    }
                    Err(line) => eprintln!("{line}"),
                }
            }
        }
        Some(other) => {
            eprintln!("dcdbquery: unknown op {other:?} (integral|derivative|stats)");
            std::process::exit(2);
        }
    }
    if args.has("sizes") {
        print_sizes(&db);
    }
    print_slow(&db);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_fetch_reports_query_errors() {
        // a virtual sensor whose operand cannot convert to its unit: the
        // only way `SensorDb::query` fails
        let db = SensorDb::in_memory();
        db.insert("/a/temp", 0, 30.0).unwrap();
        db.set_meta("/a/temp", dcdb_core::SensorMeta::with_unit(dcdb_core::Unit::CELSIUS));
        db.define_virtual("/v/bad", "\"/a/temp\" * 2", dcdb_core::Unit::WATT).unwrap();
        assert_eq!(
            fetch(&db, "/v/bad", TimeRange::all()),
            Err("dcdbquery: /v/bad: operand \"/a/temp\" has an incompatible unit".to_string())
        );
        assert_eq!(fetch(&db, "/a/temp", TimeRange::all()), Ok(vec![Reading::new(0, 30.0)]));
    }
}
