//! The paper's Fig. 1 deployment at test scale: multiple Collect Agents,
//! each serving a group of Pushers, all writing into one shared storage
//! cluster — DCDB's hierarchical scalability story ("hundreds or thousands
//! of Pushers, many Collect Agents, one or more Storage Backends", §3.2).

use std::sync::Arc;

use dcdb::collectagent::CollectAgent;
use dcdb::core::SensorDb;
use dcdb::mqtt::broker::BrokerConfig;
use dcdb::pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
use dcdb::pusher::plugins::TesterPlugin;
use dcdb::pusher::scheduler::{Pusher, PusherConfig};
use dcdb::sid::{PartitionMap, TopicRegistry};
use dcdb::store::reading::TimeRange;
use dcdb::store::{NodeConfig, StoreCluster};

/// Sum of every sensor below `prefix` on the union of their timestamps.
fn interpolated_sum(prefix: &str) -> dcdb::core::QueryRequest {
    dcdb::core::QueryRequest::subtree(prefix).aggregate_interpolated(dcdb::query::AggFn::Sum)
}

#[test]
fn two_collect_agents_one_storage_cluster() {
    // One distributed storage cluster shared by both agents, partitioned at
    // the node level of the hierarchy.
    let store = Arc::new(StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(4, 3), 1));
    // Both agents must share the topic registry so SIDs stay bijective
    // across the deployment (in the original, determinism of the topic→SID
    // mapping guarantees this; our registry probes collisions, so share it).
    let registry = Arc::new(TopicRegistry::new());
    let agent_a = CollectAgent::with_registry(Arc::clone(&store), Arc::clone(&registry));
    let agent_b = CollectAgent::with_registry(Arc::clone(&store), Arc::clone(&registry));
    let broker_a = agent_a.start_broker(BrokerConfig::default()).unwrap();
    let broker_b = agent_b.start_broker(BrokerConfig::default()).unwrap();

    // Three Pushers per agent (cluster partitions of Fig. 1).
    let mut pushers = Vec::new();
    for (cluster, broker) in [("clusterA", &broker_a), ("clusterB", &broker_b)] {
        for n in 0..3 {
            let client = dcdb::mqtt::Client::connect(dcdb::mqtt::ClientConfig::new(
                broker.local_addr(),
                format!("{cluster}-n{n}"),
            ))
            .unwrap();
            let pusher = Pusher::new(
                PusherConfig { prefix: format!("/site/{cluster}/node{n}"), ..Default::default() },
                MqttOut::new(MqttBackend::Tcp(client), SendPolicy::Continuous),
            );
            pusher.add_plugin(Box::new(TesterPlugin::new(8, 500)));
            pushers.push(pusher);
        }
    }
    for p in &pushers {
        p.run_virtual(5_000_000_000);
    }
    // QoS0 drain
    let expected = 6u64 * 8 * 11;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let got = agent_a.stats().readings.load(std::sync::atomic::Ordering::Relaxed)
            + agent_b.stats().readings.load(std::sync::atomic::Ordering::Relaxed);
        if got >= expected || std::time::Instant::now() > deadline {
            assert_eq!(got, expected, "all readings reach some agent");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Each agent served only its own cluster...
    assert_eq!(agent_a.stats().readings.load(std::sync::atomic::Ordering::Relaxed), 3 * 8 * 11);
    // ...but the data is unified in the shared storage: one libDCDB handle
    // sees the whole site.
    let db = SensorDb::new(store, registry);
    let all = db.registry().sids_under("/site");
    assert_eq!(all.len(), 6 * 8);
    for (topic, _) in &all {
        let s = db.query(topic, TimeRange::all()).unwrap();
        assert_eq!(s.readings.len(), 11, "{topic}");
    }

    // Cross-cluster aggregate over the whole site in one call.
    let sum = db.execute(&interpolated_sum("/site")).unwrap().into_single();
    assert_eq!(sum.readings.len(), 11, "shared grid across both clusters");
    // tester values ramp identically on both clusters; the sum at t=0 is the
    // sum of 48 sensors' ramp offsets
    assert!(sum.readings[0].value > 0.0);
}

#[test]
fn grouped_queries_across_a_sharded_site() {
    // a 4-node storage cluster, one sensor tree spanning 3 racks
    let store = Arc::new(StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(4, 2), 1));
    let db = SensorDb::new(store, Arc::new(TopicRegistry::new()));
    for rack in 0..3i64 {
        for node in 0..4i64 {
            for ts in 0..120i64 {
                db.insert(
                    &format!("/site/rack{rack}/node{node}/power"),
                    ts * 1_000_000_000,
                    100.0 * (rack + 1) as f64,
                )
                .unwrap();
            }
        }
    }
    // one request: per-rack average power in 1-minute windows
    let req = dcdb::core::QueryRequest::new("/site")
        .range(TimeRange::new(0, 120_000_000_000))
        .aggregate(dcdb::query::AggFn::Avg, 60_000_000_000)
        .group_by(2);
    let resp = db.execute(&req).unwrap();
    assert_eq!(resp.series.len(), 3);
    for (rack, group) in resp.series.iter().enumerate() {
        assert_eq!(group.key.as_deref().unwrap(), format!("/site/rack{rack}"));
        assert_eq!(group.sensors, 4);
        assert_eq!(group.series.readings.len(), 2);
        assert!(group
            .series
            .readings
            .iter()
            .all(|r| (r.value - 100.0 * (rack + 1) as f64).abs() < 1e-9));
        // grouped series agree with the ungrouped per-rack fan-in exactly
        let fan_in = dcdb::core::QueryRequest::new(&format!("/site/rack{rack}"))
            .range(TimeRange::new(0, 120_000_000_000))
            .aggregate(dcdb::query::AggFn::Avg, 60_000_000_000);
        assert_eq!(group.series.readings, db.execute(&fan_in).unwrap().into_single().readings);
    }
}

#[test]
fn subtree_queries_and_aggregates() {
    let db = SensorDb::in_memory();
    for node in 0..4 {
        for ts in 0..10 {
            db.insert(&format!("/agg/rack0/node{node}/power"), ts * 1_000, 100.0).unwrap();
        }
    }
    let raw = db.execute(&dcdb::core::QueryRequest::subtree("/agg/rack0")).unwrap();
    assert_eq!(raw.series.len(), 4);
    let total = db.execute(&interpolated_sum("/agg/rack0")).unwrap().into_single();
    assert_eq!(total.readings.len(), 10);
    assert!(total.readings.iter().all(|r| (r.value - 400.0).abs() < 1e-9));
    // misaligned sampling still aggregates via interpolation
    db.insert("/agg/rack0/node9/power", 500, 50.0).unwrap();
    db.insert("/agg/rack0/node9/power", 9_500, 50.0).unwrap();
    let total = db.execute(&interpolated_sum("/agg/rack0")).unwrap().into_single();
    assert!(total.readings.iter().all(|r| (r.value - 450.0).abs() < 1e-9));
}

#[test]
fn an_agent_over_a_reopened_database_serves_it_before_any_publish() {
    let dir = std::env::temp_dir().join(format!("dcdb-it-reopen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = SensorDb::in_memory();
        db.insert("/site/node0/power", 1_000, 250.0).unwrap();
        db.insert("/site/node0/power", 2_000, 260.0).unwrap();
        db.insert("/site/node1/temp", 1_000, 42.0).unwrap();
        dcdb_tools::save_db(&db, &dir).unwrap();
    }
    let db = dcdb_tools::open_db(&dir).unwrap();
    let agent = CollectAgent::with_registry(Arc::clone(db.store()), Arc::clone(db.registry()));
    let h = dcdb::collectagent::rest::router(Arc::clone(&agent)).into_handler();
    let get = |path: &str| {
        let req = dcdb::http::server::Request {
            method: dcdb::http::server::Method::Get,
            path: path.to_string(),
            query: Default::default(),
            params: Default::default(),
            headers: Default::default(),
            body: Vec::new(),
        };
        let resp = h(&req);
        (resp.status.code(), String::from_utf8(resp.body).unwrap())
    };
    assert_eq!(get("/sensors"), (200, r#"["/site/node0/power","/site/node1/temp"]"#.into()));
    assert_eq!(
        get("/cache/site/node0/power"),
        (200, r#"{"topic":"/site/node0/power","ts":2000,"value":260}"#.into())
    );
    assert_eq!(get("/cache/site/node2/power").0, 404);
    assert_eq!(agent.stats().messages.load(std::sync::atomic::Ordering::Relaxed), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
