//! `dcdbcollectagent` — run a Collect Agent: publish-only MQTT broker,
//! storage backend, REST API (paper §4.2, §5.3).
//!
//! ```text
//! dcdbcollectagent [--mqtt 127.0.0.1:1883] [--rest 127.0.0.1:8080]
//!                  [--duration SECONDS] [--db <dir>] [--nodes N] [--depth D]
//!                  [--cache-mb MB]
//!                  [--maintenance-threads N] [--flush-interval-s S]
//!                  [--self-metrics-s S] [--node-name NAME]
//!                  [--alert-rules FILE] [--alert-tick-s S] [--slow-log DUR]
//! ```
//!
//! `--nodes`/`--depth` shard storage over `N` nodes with SID-prefix
//! partitioning at hierarchy depth `D`; `--db` persists *every* node's runs
//! under `<dir>/node<N>/` so a later `dcdbquery --db` sees the full cluster.
//! `--cache-mb` gives the cluster a shared decoded-block cache (served
//! `/aggregate` panels skip re-decoding hot blocks; 0 = off).  The agent
//! holds one libDCDB handle: the REST API, the alert ticker and the
//! self-monitor query through it, and its windowed queries use every core.
//!
//! `--maintenance-threads N` runs flush/compaction on `N` background
//! workers shared by the whole cluster (default 1), so sustained MQTT
//! ingest never pays for an SSTable merge inline — `0` selects the
//! synchronous mode, whose insert tail latency is orders of magnitude
//! worse; `--flush-interval-s S` additionally
//! flushes each node's memtable at least every `S` seconds (bounding how
//! many readings a crash can lose) and drives periodic TTL enforcement.
//! `/stats` reports the flush/compaction/stall counters plus the age of
//! the most recent flush.
//!
//! The REST server also serves `GET /metrics` (Prometheus text exposition
//! of every layer's counters and latency histograms).  `--self-metrics-s S`
//! additionally folds that scrape into the store every `S` seconds as
//! `/_dcdb/<node-name>/...` sensors — the database monitors itself with
//! its own machinery, so health history is queryable like any sensor (and
//! persists with `--db`).
//!
//! `--alert-rules FILE` loads declarative alert rules (see the README's
//! "Alerting & events" section for the format) and evaluates them on the
//! live ingest stream; `--alert-tick-s S` sets the periodic evaluation
//! interval for absence and query-based rules (default 10 s).  Alert
//! state is served at `GET /alerts`, as `ALERTS{}` on `/metrics`, and
//! every transition lands in the event journal (`GET /events`).
//! `--slow-log DUR` arms the slow-query log: queries slower than `DUR`
//! (`5ms`, `100us`, …) are captured with their full span trees and served
//! at `GET /debug/slow_queries`.

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]

use std::sync::Arc;
use std::time::Duration;

use dcdb_collectagent::CollectAgent;
use dcdb_mqtt::broker::BrokerConfig;
use dcdb_sid::PartitionMap;
use dcdb_store::StoreCluster;
use dcdb_tools::Args;

fn main() {
    let args = Args::from_env();
    let mqtt_addr = args.get("mqtt").unwrap_or("127.0.0.1:1883").to_string();
    let rest_addr = args.get("rest").unwrap_or("127.0.0.1:8080").to_string();
    let duration: u64 = args.get("duration").and_then(|s| s.parse().ok()).unwrap_or(10);
    let nodes: usize = args.get("nodes").and_then(|s| s.parse().ok()).unwrap_or(1).max(1);
    let depth: usize = args.get("depth").and_then(|s| s.parse().ok()).unwrap_or(3);

    let node_cfg = dcdb_tools::node_config_from_args(&args);
    let store = Arc::new(StoreCluster::new(node_cfg, PartitionMap::prefix(nodes, depth), 1));
    let agent = CollectAgent::new(store);
    let mut alert_rule_count = 0;
    let _alert_ticker = if let Some(path) = args.get("alert-rules") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("dcdbcollectagent: cannot read --alert-rules {path}: {e}");
                std::process::exit(1);
            }
        };
        let rules = match dcdb_core::alerts::parse_rules(&text) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("dcdbcollectagent: bad rule in {path}: {e}");
                std::process::exit(1);
            }
        };
        alert_rule_count = rules.len();
        let engine = Arc::new(dcdb_core::alerts::AlertEngine::with_rules(rules));
        agent.sensor_db().set_alert_engine(engine);
        let tick_s: u64 = args.get("alert-tick-s").and_then(|s| s.parse().ok()).unwrap_or(10);
        Some(agent.start_alert_ticker(Duration::from_secs(tick_s.max(1))))
    } else {
        None
    };
    if let Some(spec) = args.get("slow-log") {
        match dcdb_query::parse_duration_ns(spec).filter(|&t| t > 0) {
            Some(t) => agent.sensor_db().slow_queries().set_threshold_ns(t as u64),
            None => {
                eprintln!("dcdbcollectagent: --slow-log needs a duration like 5ms, 100us");
                std::process::exit(1);
            }
        }
    }

    let broker_cfg = BrokerConfig { bind: mqtt_addr.parse().expect("valid --mqtt address") };
    let broker = match agent.start_broker(broker_cfg) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("dcdbcollectagent: cannot bind MQTT {mqtt_addr}: {e}");
            std::process::exit(1);
        }
    };
    let rest = match dcdb_collectagent::rest::serve(
        Arc::clone(&agent),
        rest_addr.parse().expect("valid --rest address"),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dcdbcollectagent: cannot bind REST {rest_addr}: {e}");
            std::process::exit(1);
        }
    };
    let self_metrics_s: u64 = args.get("self-metrics-s").and_then(|s| s.parse().ok()).unwrap_or(0);
    let node_name = args.get("node-name").unwrap_or("agent0").to_string();
    let _monitor = (self_metrics_s > 0)
        .then(|| agent.start_self_monitor(&node_name, Duration::from_secs(self_metrics_s)));
    println!(
        "collect agent up: mqtt://{} rest http://{} (running {duration}s)",
        broker.local_addr(),
        rest.local_addr()
    );
    if self_metrics_s > 0 {
        println!(
            "self-monitoring: /{}/{node_name}/* every {self_metrics_s}s",
            dcdb_sid::RESERVED_PREFIX
        );
    }
    if alert_rule_count > 0 {
        println!("alerting: {alert_rule_count} rules loaded (GET /alerts, /events)");
    }
    std::thread::sleep(Duration::from_secs(duration));

    let stats = agent.stats();
    println!(
        "processed {} messages / {} readings ({} dropped)",
        stats.messages.load(std::sync::atomic::Ordering::Relaxed),
        stats.readings.load(std::sync::atomic::Ordering::Relaxed),
        stats.dropped.load(std::sync::atomic::Ordering::Relaxed),
    );
    let maint = agent.store().maintenance_stats();
    if maint.threads > 0 {
        println!(
            "maintenance: {} flushes / {} compactions on {} threads \
             ({} coalesced, {} write stalls)",
            maint.flushes,
            maint.compactions,
            maint.threads,
            maint.compactions_coalesced,
            maint.stalls,
        );
    }
    if let Some(dir) = args.get("db") {
        let dir = std::path::Path::new(dir);
        let runs = dcdb_tools::save_db(&agent.sensor_db(), dir).expect("persist");
        println!(
            "database saved to {} ({runs} runs across {} nodes)",
            dir.display(),
            agent.store().node_count()
        );
    }
}
