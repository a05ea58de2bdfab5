//! Streaming analytics on the one ingest path: alert rules check live
//! readings as they are stored, and derived series are answered when read.
//!
//! A GPU-accelerated node is monitored live.  The Collect Agent's alert
//! engine guards a power band (the paper's §1 motivating use case) and
//! flags temperature anomalies with an online z-score detector, on every
//! publish.  Smoothed power and the memory allocation rate are windowed
//! `avg`/`rate` queries over the stored readings, evaluated when they are
//! asked for, as the paper's virtual sensors are (§3.2).
//!
//! ```text
//! cargo run --example streaming_analytics
//! ```

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]

use std::sync::Arc;

use dcdb::collectagent::CollectAgent;
use dcdb::core::alerts::{AlertCondition, AlertEngine, AlertRule, AlertState};
use dcdb::core::QueryRequest;
use dcdb::obs::EventKind;
use dcdb::pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
use dcdb::pusher::plugins::GpuPlugin;
use dcdb::pusher::scheduler::{Pusher, PusherConfig};
use dcdb::query::AggFn;
use dcdb::sim::devices::gpu::GpuDevice;
use dcdb::store::reading::{Reading, TimeRange};
use dcdb::store::StoreCluster;

const S: i64 = 1_000_000_000;

fn main() {
    // Pipeline: Pusher (GPU plugin) → in-process MQTT output → Collect
    // Agent → store + alert rules.
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let to_agent = Arc::clone(&agent);
    let transport = MqttBackend::Callback(Arc::new(move |topic, payload| {
        to_agent.handle_publish(topic, payload)
    }));

    let db = agent.sensor_db();
    let engine = Arc::new(AlertEngine::with_rules(vec![
        // above 280 W for 10 s: the `for` hysteresis keeps a flapping
        // reading from paging
        AlertRule::new("power_band", "/gpunode/gpu0/power", AlertCondition::Above(280.0))
            .for_duration(10 * S),
        AlertRule::new(
            "temperature_anomaly",
            "/gpunode/+/temperature",
            AlertCondition::ZScore { sigmas: 5.0, min_samples: 20 },
        ),
    ]));
    db.set_alert_engine(Arc::clone(&engine));

    let gpu = Arc::new(GpuDevice::new());
    let pusher = Pusher::new(
        PusherConfig { prefix: "/gpunode".into(), ..Default::default() },
        MqttOut::new(transport, SendPolicy::Continuous),
    );
    pusher.add_plugin(Box::new(GpuPlugin::new(vec![Arc::clone(&gpu)], 1000)));

    // 5 idle minutes, then a heavy job lands, then it finishes.
    println!("simulating 15 minutes of GPU activity (job arrives at t=5min)...");
    let power_firing =
        || engine.alerts().iter().any(|a| a.rule == "power_band" && a.state == AlertState::Firing);
    let mut fired_at = None;
    for sec in 0..900i64 {
        let intensity = if (300..780).contains(&sec) { 1.0 } else { 0.02 };
        gpu.advance(1.0, intensity);
        pusher.sample_due(sec * S);
        if fired_at.is_none() && power_firing() {
            fired_at = Some(sec);
        }
    }

    // What did the alert rules see?  Every transition is in the journal,
    // its message naming the reading's time.
    let transitions: Vec<_> =
        db.events().since(0).into_iter().filter(|e| e.kind == EventKind::AlertTransition).collect();
    println!("\n{} alert transitions:", transitions.len());
    for e in transitions.iter().take(5) {
        println!("  {:<20} {}", e.subject, e.message);
    }
    println!("  power_band first fired at t={fired_at:?} s");
    assert!(
        fired_at.is_some_and(|sec| sec >= 300)
            && transitions
                .iter()
                .any(|e| e.subject == "power_band" && e.message.contains("firing")),
        "power-band alert expected when the job lands"
    );

    // Derived series are windowed queries over the stored readings.
    let windowed = |topic: &str, agg: AggFn| -> Vec<Reading> {
        let req =
            QueryRequest::topic(topic).range(TimeRange::new(0, 900 * S)).aggregate(agg, 10 * S);
        db.execute(&req).expect("windowed query").into_single().readings
    };
    let avg = windowed("/gpunode/gpu0/power", AggFn::Avg);
    println!("\nsmoothed power series: {} windows of 10 s", avg.len());
    let during_job = avg.iter().find(|r| r.ts > 400 * S).expect("a window during the job");
    println!("  smoothed power during the job: {:.0} W", during_job.value);
    assert!(during_job.value > 200.0);

    let rates = windowed("/gpunode/gpu0/memory_used", AggFn::Rate);
    let peak_alloc = rates.iter().map(|r| r.value).fold(f64::MIN, f64::max);
    println!("  peak memory allocation rate: {peak_alloc:.0} MiB/s");
    assert!(peak_alloc > 0.0);

    println!(
        "\nthe agent stored {} readings",
        agent.stats().readings.load(std::sync::atomic::Ordering::Relaxed)
    );
    println!("streaming analytics OK");
}
