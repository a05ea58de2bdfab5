//! Energy case study: the paper's use case 1 (Fig. 9) as an application.
//!
//! Monitors the simulated CooLMUC-3 warm-water cooling circuit out-of-band
//! (SNMP + REST), aggregates with virtual sensors, and reports the
//! heat-removal efficiency — expected around 90%, independent of inlet
//! temperature.
//!
//! ```text
//! cargo run --example energy_case_study
//! ```

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]

fn main() {
    println!("running the 24 h CooLMUC-3 heat-removal study (5-minute sampling)...\n");
    let cs = dcdb_bench_like();
    println!("{cs}");
}

/// Drive the same pipeline the fig9 harness uses, at coarse resolution.
fn dcdb_bench_like() -> String {
    use dcdb::collectagent::CollectAgent;
    use dcdb::core::{SensorMeta, Unit};
    use dcdb::pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
    use dcdb::pusher::plugins::{RestPlugin, SnmpPlugin};
    use dcdb::pusher::scheduler::{Pusher, PusherConfig};
    use dcdb::sim::devices::cooling::CoolingCircuit;
    use dcdb::sim::devices::rest::RestSource;
    use dcdb::sim::devices::snmp::SnmpAgent;
    use dcdb::store::reading::TimeRange;
    use dcdb::store::StoreCluster;
    use std::sync::Arc;

    const POWER_OID: &str = "1.3.6.1.4.1.318.1.1.26.6.3.1.7.1";
    let step_s = 300.0;

    let mut circuit = CoolingCircuit::new(7);
    let snmp = Arc::new(SnmpAgent::new());
    snmp.set(POWER_OID, 0.0);
    let rest = Arc::new(RestSource::new());
    rest.set("heat_removed_kw", 0.0);
    rest.set("inlet_temp_c", 0.0);

    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let to_agent = Arc::clone(&agent);
    let transport = MqttBackend::Callback(Arc::new(move |topic, payload| {
        to_agent.handle_publish(topic, payload)
    }));

    let pusher = Pusher::new(
        PusherConfig { prefix: "/lrz/coolmuc3".into(), ..Default::default() },
        MqttOut::new(transport, SendPolicy::Continuous),
    );
    let mut sp = SnmpPlugin::new();
    sp.add_walk("pdu", Arc::clone(&snmp), "1.3.6.1.4.1.318", (step_s * 1000.0) as u64);
    pusher.add_plugin(Box::new(sp));
    let mut rp = RestPlugin::new();
    rp.add_endpoint("cooling", Arc::clone(&rest), (step_s * 1000.0) as u64);
    pusher.add_plugin(Box::new(rp));

    let steps = (24.0 * 3600.0 / step_s) as usize;
    for i in 0..steps {
        let t_s = i as f64 * step_s;
        let s = circuit.sample(t_s);
        snmp.set(POWER_OID, s.power_kw);
        rest.set("heat_removed_kw", s.heat_removed_kw);
        rest.set("inlet_temp_c", s.inlet_temp_c);
        pusher.sample_due((t_s * 1e9) as i64);
    }

    let db = agent.sensor_db();
    let power_topic = format!("/lrz/coolmuc3/pdu/snmp/{}", POWER_OID.replace('.', "_"));
    let heat_topic = "/lrz/coolmuc3/cooling/heat_removed_kw";
    db.set_meta(&power_topic, SensorMeta::with_unit(Unit::KILOWATT));
    db.set_meta(heat_topic, SensorMeta::with_unit(Unit::KILOWATT));
    db.define_virtual(
        "/v/efficiency",
        &format!("\"{heat_topic}\" / \"{power_topic}\""),
        Unit::NONE,
    )
    .expect("expression");

    let eff = db.query("/v/efficiency", TimeRange::all()).expect("query");
    let mean = eff.readings.iter().map(|r| r.value).sum::<f64>() / eff.readings.len() as f64;
    assert!((0.85..0.95).contains(&mean), "efficiency {mean}");
    format!(
        "heat-removal efficiency over {} samples: {:.1}%  (paper: ~90%)\nenergy case study OK",
        eff.readings.len(),
        mean * 100.0
    )
}
