//! Quickstart: the smallest end-to-end dcdb-rs pipeline.
//!
//! A tester-plugin Pusher samples 100 synthetic sensors once per second and
//! publishes them over a real TCP MQTT connection to a Collect Agent, which
//! stores them in the wide-column backend.  We then query the data back
//! through libDCDB and compute a virtual sensor.
//!
//! ```text
//! cargo run --example quickstart
//! ```

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]

use std::sync::Arc;
use std::time::Duration;

use dcdb::collectagent::CollectAgent;
use dcdb::core::Unit;
use dcdb::mqtt::broker::BrokerConfig;
use dcdb::pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
use dcdb::pusher::plugins::TesterPlugin;
use dcdb::pusher::scheduler::{Pusher, PusherConfig};
use dcdb::store::reading::TimeRange;
use dcdb::store::StoreCluster;

fn main() {
    // 1. Storage backend + Collect Agent with an embedded MQTT broker.
    let store = Arc::new(StoreCluster::single());
    let agent = CollectAgent::new(store);
    let broker = agent.start_broker(BrokerConfig::default()).expect("broker");
    println!("collect agent listening on mqtt://{}", broker.local_addr());

    // 2. A Pusher with 100 tester sensors at 1 s, pushing over TCP.
    let client = dcdb::mqtt::Client::connect(dcdb::mqtt::ClientConfig::new(
        broker.local_addr(),
        "quickstart-pusher",
    ))
    .expect("connect");
    let pusher = Pusher::new(
        PusherConfig { prefix: "/demo/node0".into(), ..Default::default() },
        MqttOut::new(MqttBackend::Tcp(client), SendPolicy::Continuous),
    );
    pusher.add_plugin(Box::new(TesterPlugin::new(100, 1000)));

    // 3. Run three (virtual) seconds of sampling.
    let produced = pusher.run_virtual(3_000_000_000);
    println!("pusher produced {produced} readings");
    std::thread::sleep(Duration::from_millis(300)); // let the broker drain

    // 4. Query back through libDCDB.
    let db = agent.sensor_db();
    let series = db.query("/demo/node0/tester/t0", TimeRange::all()).expect("query");
    println!("sensor t0 has {} stored readings:", series.readings.len());
    for r in &series.readings {
        println!("  ts={} value={:.3}", r.ts, r.value);
    }

    // 5. A virtual sensor over two physical ones.
    db.define_virtual(
        "/v/demo/sum",
        "\"/demo/node0/tester/t1\" + \"/demo/node0/tester/t2\"",
        Unit::NONE,
    )
    .expect("virtual sensor");
    let v = db.query("/v/demo/sum", TimeRange::all()).expect("vquery");
    println!("virtual sensor /v/demo/sum evaluated {} points", v.readings.len());
    assert!(!v.readings.is_empty());
    println!("quickstart OK");
}
