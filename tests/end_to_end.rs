//! Cross-crate integration: the full monitoring pipeline over real TCP —
//! simulated node → Pusher plugins → MQTT client → broker → Collect Agent →
//! storage cluster → libDCDB queries and virtual sensors → REST APIs.

use std::sync::Arc;
use std::time::Duration;

use dcdb::collectagent::CollectAgent;
use dcdb::core::{SensorMeta, Unit};
use dcdb::http::client;
use dcdb::http::json::Json;
use dcdb::mqtt::broker::BrokerConfig;
use dcdb::pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
use dcdb::pusher::plugins::{PerfeventsPlugin, SysFsPlugin, TesterPlugin};
use dcdb::pusher::scheduler::{Pusher, PusherConfig};
use dcdb::sim::{Arch, SimClock, SimNode, Workload};
use dcdb::store::reading::TimeRange;
use dcdb::store::StoreCluster;

fn wait_for<F: Fn() -> bool>(cond: F, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(std::time::Instant::now() < deadline, "timeout waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn tcp_pipeline_from_sim_node_to_query() {
    // Collect Agent with a real MQTT broker.
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let broker = agent.start_broker(BrokerConfig::default()).expect("broker");

    // A simulated KNL node running Kripke.
    let clock = SimClock::new();
    let mut node =
        SimNode::new(Arch::KnightsLanding, "knl-e2e", Arc::clone(&clock), Workload::Kripke, 3);

    // In-band Pusher: perfevents + sysfs over TCP MQTT.
    let client = dcdb::mqtt::Client::connect(dcdb::mqtt::ClientConfig::new(
        broker.local_addr(),
        "e2e-pusher",
    ))
    .expect("client connect");
    let pusher = Pusher::new(
        PusherConfig { prefix: "/e2e/knl-e2e".into(), ..Default::default() },
        MqttOut::new(MqttBackend::Tcp(client), SendPolicy::Continuous),
    );
    pusher.add_plugin(Box::new(PerfeventsPlugin::standard(Arc::clone(&node.perf), 1000)));
    pusher.add_plugin(Box::new(SysFsPlugin::for_sim_node(Arc::clone(&node.sysfs), 1000)));

    // 10 virtual seconds, device state advancing alongside.
    for sec in 0..10 {
        let now = sec * 1_000_000_000;
        clock.advance_to(now);
        node.advance_to(now);
        pusher.sample_due(now);
    }
    let expected = pusher.stats().readings.load(std::sync::atomic::Ordering::Relaxed);
    assert!(expected > 1000, "pusher produced {expected}");
    wait_for(
        || agent.stats().readings.load(std::sync::atomic::Ordering::Relaxed) >= expected,
        "agent to receive all readings",
    );

    // Query back through libDCDB.
    let db = agent.sensor_db();
    let series = db.query("/e2e/knl-e2e/cpu0/instructions", TimeRange::all()).expect("query");
    // delta sensors: first reading swallowed
    assert_eq!(series.readings.len(), 9);
    assert!(series.readings.iter().all(|r| r.value > 0.0));

    // Virtual sensor: instructions per joule of package energy.
    db.set_meta("/e2e/knl-e2e/sysfs/energy_uj_intel-rapl:0", SensorMeta::with_unit(Unit::JOULE));
    db.define_virtual(
        "/v/e2e/instr_per_j",
        "\"/e2e/knl-e2e/cpu0/instructions\" / (\"/e2e/knl-e2e/sysfs/energy_uj_intel-rapl:0\" + 1)",
        Unit::NONE,
    )
    .expect("vsensor");
    let v = db.query("/v/e2e/instr_per_j", TimeRange::all()).expect("vquery");
    assert!(!v.readings.is_empty());
    assert!(v.readings.iter().all(|r| r.value.is_finite()));
}

#[test]
fn rest_apis_full_stack() {
    // Pusher with tester plugin + REST server.
    let pusher = Arc::new(Pusher::new(
        PusherConfig { prefix: "/rest/node".into(), ..Default::default() },
        MqttOut::new(MqttBackend::Null, SendPolicy::Continuous),
    ));
    pusher.add_plugin(Box::new(TesterPlugin::new(10, 100)));
    pusher.run_virtual(1_000_000_000);
    let rest = dcdb::pusher::rest::serve(Arc::clone(&pusher), "127.0.0.1:0".parse().unwrap())
        .expect("pusher REST");

    // plugin listing and control
    let resp = client::get(rest.local_addr(), "/plugins").unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    assert_eq!(j.idx(0).unwrap().get("name").unwrap().as_str(), Some("tester"));
    assert_eq!(j.idx(0).unwrap().get("running").unwrap().as_bool(), Some(true));

    let resp = client::put(rest.local_addr(), "/plugins/tester/stop", None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(pusher.plugin_enabled("tester"), Some(false));
    client::put(rest.local_addr(), "/plugins/tester/start", None).unwrap();
    assert_eq!(pusher.plugin_enabled("tester"), Some(true));
    let resp = client::put(rest.local_addr(), "/plugins/ghost/start", None).unwrap();
    assert_eq!(resp.status, 404);

    // cache access
    let resp = client::get(rest.local_addr(), "/cache/rest/node/tester/t3").unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    assert!(j.get("readings").unwrap().as_arr().unwrap().len() >= 10);

    // config view
    let resp = client::get(rest.local_addr(), "/config").unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    assert_eq!(j.get("sensors").unwrap().as_f64(), Some(10.0));
}

#[test]
fn plugin_reload_over_rest() {
    // "one can modify a plugin's configuration file at runtime and trigger a
    // reload of the configuration" (paper §5.3)
    let pusher = Arc::new(Pusher::new(
        PusherConfig { prefix: "/reload/node".into(), ..Default::default() },
        MqttOut::new(MqttBackend::Null, SendPolicy::Continuous),
    ));
    pusher.add_plugin(Box::new(TesterPlugin::new(5, 1000)));
    let rest = dcdb::pusher::rest::serve(Arc::clone(&pusher), "127.0.0.1:0".parse().unwrap())
        .expect("REST");
    assert_eq!(pusher.sensor_count(), 5);

    // reload with a new configuration: 20 sensors at 500 ms
    let resp = client::put(
        rest.local_addr(),
        "/plugins/tester/reload",
        Some(b"sensors 20\ninterval 500\n"),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.text());
    assert_eq!(pusher.sensor_count(), 20);
    let produced = pusher.run_virtual(1_000_000_000);
    assert_eq!(produced, 20 * 3); // 0, 500ms, 1000ms

    // bad config is rejected without touching the plugin
    let resp =
        client::put(rest.local_addr(), "/plugins/tester/reload", Some(b"sensors zero\n")).unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(pusher.sensor_count(), 20);
    // unknown plugin
    let resp = client::put(rest.local_addr(), "/plugins/nope/reload", Some(b"x 1\n")).unwrap();
    assert_eq!(resp.status, 404);
}

#[test]
fn collect_agent_rest_hierarchy() {
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let payload = dcdb::mqtt::payload::encode_readings(&[(1_000, 5.0)]);
    for rack in 0..2 {
        for node in 0..2 {
            agent.handle_publish(&format!("/site/rack{rack}/node{node}/power"), &payload);
        }
    }
    let rest = dcdb::collectagent::rest::serve(Arc::clone(&agent), "127.0.0.1:0".parse().unwrap())
        .expect("CA REST");

    let resp = client::get(rest.local_addr(), "/sensors").unwrap();
    assert_eq!(Json::parse(&resp.text()).unwrap().as_arr().unwrap().len(), 4);

    let resp = client::get(rest.local_addr(), "/cache/site/rack0/node1/power").unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    assert_eq!(j.get("value").unwrap().as_f64(), Some(5.0));

    let resp = client::get(rest.local_addr(), "/hierarchy?prefix=/site&level=1").unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    let racks: Vec<&str> =
        j.get("children").unwrap().as_arr().unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(racks, vec!["rack0", "rack1"]);

    let resp = client::get(rest.local_addr(), "/stats").unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    assert_eq!(j.get("messages").unwrap().as_f64(), Some(4.0));
}

#[test]
fn burst_policy_batches_on_the_wire() {
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let broker = agent.start_broker(BrokerConfig::default()).expect("broker");
    let client = dcdb::mqtt::Client::connect(dcdb::mqtt::ClientConfig::new(
        broker.local_addr(),
        "burst-pusher",
    ))
    .expect("connect");
    let pusher = Pusher::new(
        PusherConfig { prefix: "/burst/node".into(), ..Default::default() },
        MqttOut::new(
            MqttBackend::Tcp(client),
            SendPolicy::Burst { interval_ns: 30 * 1_000_000_000 },
        ),
    );
    pusher.add_plugin(Box::new(TesterPlugin::new(5, 1000)));
    pusher.run_virtual(60 * 1_000_000_000); // one minute → ~2 bursts + final flush
    let readings = pusher.stats().readings.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(readings, 5 * 61);
    wait_for(
        || agent.stats().readings.load(std::sync::atomic::Ordering::Relaxed) >= readings,
        "agent to drain bursts",
    );
    // far fewer MQTT messages than readings
    let messages = agent.stats().messages.load(std::sync::atomic::Ordering::Relaxed);
    assert!(messages <= 5 * 4, "bursting sent {messages} messages for {readings} readings");
    // data integrity after batching
    let db = agent.sensor_db();
    let s = db.query("/burst/node/tester/t0", TimeRange::all()).unwrap();
    assert_eq!(s.readings.len(), 61);
}
