//! Streaming analytics: the paper's future-work layer (§9) in action.
//!
//! A GPU-accelerated node is monitored live; the analytics pipeline attached
//! to the Collect Agent computes moving averages and counter rates on the
//! fly, guards a power band with a hysteresis threshold (the §1 motivating
//! use case), and flags anomalies with an online z-score detector.
//!
//! ```text
//! cargo run --example streaming_analytics
//! ```

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]

use std::sync::Arc;

use dcdb::collectagent::analytics::{
    AnalyticsPipeline, MovingAverage, RateOfChange, Threshold, ZScoreAnomaly,
};
use dcdb::collectagent::CollectAgent;
use dcdb::pusher::mqtt_out::{MqttBackend, MqttOut, SendPolicy};
use dcdb::pusher::plugins::GpuPlugin;
use dcdb::pusher::scheduler::{Pusher, PusherConfig};
use dcdb::sim::devices::gpu::GpuDevice;
use dcdb::store::reading::TimeRange;
use dcdb::store::StoreCluster;

fn main() {
    // Pipeline: Pusher (GPU plugin) → in-process MQTT output → Collect
    // Agent → store, with the analytics layer observing live readings.
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let to_agent = Arc::clone(&agent);
    let transport = MqttBackend::Callback(Arc::new(move |topic, payload| {
        to_agent.handle_publish(topic, payload)
    }));

    let analytics = AnalyticsPipeline::attach(&agent);
    analytics.add_operator("/gpunode/gpu0/power", Arc::new(MovingAverage::new(10)));
    analytics.add_operator("/gpunode/gpu0/power", Arc::new(Threshold::new(280.0, 200.0)));
    analytics.add_operator("/gpunode/+/temperature", Arc::new(ZScoreAnomaly::new(5.0, 20)));
    analytics.add_operator("/gpunode/gpu0/memory_used", Arc::new(RateOfChange::new()));

    let gpu = Arc::new(GpuDevice::new());
    let pusher = Pusher::new(
        PusherConfig { prefix: "/gpunode".into(), ..Default::default() },
        MqttOut::new(transport, SendPolicy::Continuous),
    );
    pusher.add_plugin(Box::new(GpuPlugin::new(vec![Arc::clone(&gpu)], 1000)));

    // 5 idle minutes, then a heavy job lands, then it finishes.
    println!("simulating 15 minutes of GPU activity (job arrives at t=5min)...");
    for sec in 0..900i64 {
        let intensity = if (300..780).contains(&sec) { 1.0 } else { 0.02 };
        gpu.advance(1.0, intensity);
        pusher.sample_due(sec * 1_000_000_000);
    }

    // What did the analytics layer see?
    let events = analytics.take_events();
    println!("\n{} events raised:", events.len());
    for e in events.iter().take(5) {
        println!("  t={:>4}s {:<28} {}", e.ts / 1_000_000_000, e.topic, e.message);
    }
    assert!(
        events.iter().any(|e| e.topic.ends_with("/power") && e.message.contains("exceeded")),
        "power-band alert expected when the job lands"
    );

    // Derived series are ordinary sensors in the store.
    let avg_sid = agent.registry().get("/analytics/avg/gpunode/gpu0/power").unwrap();
    let avg = agent.store().query(avg_sid, TimeRange::all());
    println!("\nmoving-average power series: {} points", avg.len());
    let during_job = avg.iter().find(|r| r.ts > 400 * 1_000_000_000).unwrap();
    println!("  smoothed power during the job: {:.0} W", during_job.value);
    assert!(during_job.value > 200.0);

    let rate_sid = agent.registry().get("/analytics/rate/gpunode/gpu0/memory_used").unwrap();
    let rates = agent.store().query(rate_sid, TimeRange::all());
    let peak_alloc = rates.iter().map(|r| r.value).fold(f64::MIN, f64::max);
    println!("  peak memory allocation rate: {peak_alloc:.0} MiB/s");
    assert!(peak_alloc > 0.0);

    println!(
        "\nanalytics processed {} readings, wrote {} derived readings",
        analytics.processed.load(std::sync::atomic::Ordering::Relaxed),
        analytics.derived_written.load(std::sync::atomic::Ordering::Relaxed)
    );
    println!("streaming analytics OK");
}
