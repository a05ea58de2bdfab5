//! **Figure 9** (use case 1): efficiency of heat removal on CooLMUC-3.
//!
//! This experiment runs the *entire* dcdb-rs pipeline end to end, exactly as
//! the paper describes the deployment: the cooling-circuit instrumentation
//! is exposed through SNMP and REST sources, one out-of-band Pusher samples
//! them, readings travel over the in-process MQTT output to a Collect
//! Agent, land in the storage backend, and *virtual sensors* aggregate the
//! raw series into total power, heat removed and the heat-removal
//! efficiency.
//!
//! Expected shape: mean efficiency ≈ 0.90, essentially uncorrelated with
//! inlet temperature (insulated racks), power swinging ~10–35 kW over the
//! day while inlet temperature ramps from ~27 °C upward.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcdb_collectagent::CollectAgent;
use dcdb_core::{SensorMeta, Unit};
use dcdb_pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
use dcdb_pusher::plugins::{RestPlugin, SnmpPlugin};
use dcdb_pusher::scheduler::{Pusher, PusherConfig};
use dcdb_sim::devices::cooling::CoolingCircuit;
use dcdb_sim::devices::rest::RestSource;
use dcdb_sim::devices::snmp::SnmpAgent;
use dcdb_store::reading::TimeRange;
use dcdb_store::StoreCluster;

/// Result of the case study.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// `(hour, power kW, heat removed kW, inlet °C)` series for plotting.
    pub series: Vec<(f64, f64, f64, f64)>,
    /// Mean heat-removal efficiency over the day.
    pub mean_efficiency: f64,
    /// Pearson correlation between inlet temperature and efficiency.
    pub temp_efficiency_correlation: f64,
    /// Total readings that flowed through the MQTT transport.
    pub transported_readings: u64,
}

/// OIDs of the power sensors on the (simulated) rack PDU controller.
const POWER_OID: &str = "1.3.6.1.4.1.318.1.1.26.6.3.1.7.1";

/// Run the 24-hour study at `step_s` resolution (paper-like: 60 s).
pub fn run(step_s: f64) -> CaseStudy {
    // -- facility instrumentation ------------------------------------
    let mut circuit = CoolingCircuit::new(0xF19);
    let snmp = Arc::new(SnmpAgent::new());
    snmp.set(POWER_OID, 0.0);
    let rest = Arc::new(RestSource::new());
    rest.set("heat_removed_kw", 0.0);
    rest.set("inlet_temp_c", 0.0);
    rest.set("flow_m3h", 0.0);

    // -- monitoring pipeline -----------------------------------------
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let publish_bytes = Arc::new(AtomicU64::new(0));
    let (to_agent, counted) = (Arc::clone(&agent), Arc::clone(&publish_bytes));
    let transport = MqttBackend::Callback(Arc::new(move |topic, payload| {
        counted.fetch_add(payload.len() as u64, Ordering::Relaxed);
        to_agent.handle_publish(topic, payload);
    }));

    let interval_ms = (step_s * 1000.0) as u64;
    let pusher = Pusher::new(
        PusherConfig { prefix: "/lrz/coolmuc3".into(), ..Default::default() },
        MqttOut::new(transport, SendPolicy::Continuous),
    );
    let mut snmp_plugin = SnmpPlugin::new();
    snmp_plugin.add_walk("pdu", Arc::clone(&snmp), "1.3.6.1.4.1.318", interval_ms);
    pusher.add_plugin(Box::new(snmp_plugin));
    let mut rest_plugin = RestPlugin::new();
    rest_plugin.add_endpoint("cooling", Arc::clone(&rest), interval_ms);
    pusher.add_plugin(Box::new(rest_plugin));

    // -- drive 24 hours of virtual time -------------------------------
    let steps = (24.0 * 3600.0 / step_s) as usize;
    for i in 0..steps {
        let t_s = i as f64 * step_s;
        let sample = circuit.sample(t_s);
        snmp.set(POWER_OID, sample.power_kw);
        rest.set("heat_removed_kw", sample.heat_removed_kw);
        rest.set("inlet_temp_c", sample.inlet_temp_c);
        rest.set("flow_m3h", sample.flow_m3_h);
        rest.set_timestamp((t_s * 1e9) as i64);
        pusher.sample_due((t_s * 1e9) as i64);
    }
    pusher.out().flush();

    // -- analysis through libDCDB virtual sensors ---------------------
    let db = agent.sensor_db();
    let power_topic = format!("/lrz/coolmuc3/pdu/snmp/{}", POWER_OID.replace('.', "_"));
    let heat_topic = "/lrz/coolmuc3/cooling/heat_removed_kw";
    let inlet_topic = "/lrz/coolmuc3/cooling/inlet_temp_c";
    db.set_meta(&power_topic, SensorMeta::with_unit(Unit::KILOWATT));
    db.set_meta(heat_topic, SensorMeta::with_unit(Unit::KILOWATT));
    db.set_meta(inlet_topic, SensorMeta::with_unit(Unit::CELSIUS));
    db.define_virtual(
        "/v/coolmuc3/efficiency",
        &format!("\"{heat_topic}\" / \"{power_topic}\""),
        Unit::NONE,
    )
    .expect("efficiency expression compiles");

    let range = TimeRange::new(0, (24.0 * 3600.0 * 1e9) as i64 + 1);
    let power = db.query(&power_topic, range).expect("power query");
    let heat = db.query(heat_topic, range).expect("heat query");
    let inlet = db.query(inlet_topic, range).expect("inlet query");
    let eff = db.query("/v/coolmuc3/efficiency", range).expect("efficiency query");

    let n = power.readings.len().min(heat.readings.len()).min(inlet.readings.len());
    let series: Vec<(f64, f64, f64, f64)> = (0..n)
        .map(|i| {
            (
                power.readings[i].ts as f64 / 3.6e12,
                power.readings[i].value,
                heat.readings[i].value,
                inlet.readings[i].value,
            )
        })
        .collect();

    let mean_efficiency =
        eff.readings.iter().map(|r| r.value).sum::<f64>() / eff.readings.len() as f64;
    let temps: Vec<f64> = inlet.readings.iter().map(|r| r.value).collect();
    let effs: Vec<f64> = eff.readings.iter().take(temps.len()).map(|r| r.value).collect();
    let temp_efficiency_correlation = pearson(&temps, &effs);

    CaseStudy {
        series,
        mean_efficiency,
        temp_efficiency_correlation,
        transported_readings: publish_bytes.load(Ordering::Relaxed)
            / dcdb_mqtt::payload::RECORD_SIZE as u64,
    }
}

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len().min(y.len()) as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let cov: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum::<f64>() / n;
    let sx = (x.iter().map(|a| (a - mx).powi(2)).sum::<f64>() / n).sqrt();
    let sy = (y.iter().map(|b| (b - my).powi(2)).sum::<f64>() / n).sqrt();
    if sx * sy == 0.0 {
        0.0
    } else {
        cov / (sx * sy)
    }
}

/// Render the study (downsampled series + summary).
pub fn render(cs: &CaseStudy) -> String {
    let mut out = String::new();
    out.push_str("hour, power [kW], heat removed [kW], inlet [C]\n");
    let stride = (cs.series.len() / 24).max(1);
    for (h, p, q, t) in cs.series.iter().step_by(stride) {
        out.push_str(&format!("{h:5.1}, {p:6.1}, {q:6.1}, {t:5.1}\n"));
    }
    out.push_str(&format!(
        "\nmean heat-removal efficiency: {:.1}% (paper: ~90%)\n",
        cs.mean_efficiency * 100.0
    ));
    out.push_str(&format!(
        "corr(inlet temperature, efficiency): {:+.3} (insulation → ~0)\n",
        cs.temp_efficiency_correlation
    ));
    out.push_str(&format!("readings through MQTT: {}\n", cs.transported_readings));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiency_near_ninety_percent() {
        let cs = run(300.0); // 5-minute steps for test speed
        assert!(
            (0.87..0.93).contains(&cs.mean_efficiency),
            "mean efficiency {:.3}",
            cs.mean_efficiency
        );
    }

    #[test]
    fn efficiency_uncorrelated_with_inlet_temperature() {
        let cs = run(300.0);
        assert!(
            cs.temp_efficiency_correlation.abs() < 0.2,
            "correlation {:+.3}",
            cs.temp_efficiency_correlation
        );
    }

    #[test]
    fn series_spans_the_day_with_diurnal_power() {
        let cs = run(300.0);
        assert!(cs.series.len() >= 280);
        let max_p = cs.series.iter().map(|s| s.1).fold(f64::MIN, f64::max);
        let min_p = cs.series.iter().map(|s| s.1).fold(f64::MAX, f64::min);
        assert!(max_p < 40.0 && min_p > 8.0, "power {min_p:.1}–{max_p:.1} kW");
        assert!(max_p - min_p > 12.0, "diurnal swing {:.1} kW", max_p - min_p);
        // inlet ramps upward over the day
        assert!(cs.series.last().unwrap().3 > cs.series.first().unwrap().3 + 25.0);
    }

    #[test]
    fn data_flowed_through_the_transport() {
        let cs = run(600.0);
        // 4 sensors (1 SNMP OID + 3 REST metrics) × 144 steps = 576 readings
        assert!(cs.transported_readings >= 570, "{}", cs.transported_readings);
    }
}
