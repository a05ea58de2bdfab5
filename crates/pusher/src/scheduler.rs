//! The Pusher core: sampling scheduler, processing pipeline, lifecycle.
//!
//! Sensor read intervals are synchronised within groups, across plugins and
//! across Pushers by aligning every read to a global interval grid (the
//! NTP-synchronised timing of paper §4.1): a group with a 1 s interval reads
//! at exact multiples of 1 s, so readings from different nodes share
//! timestamps and can be correlated without interpolation.
//!
//! The scheduler runs either against the wall clock (production) or against
//! a virtual clock (evaluation harness) — same sampling, caching and
//! publishing code in both modes.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use crate::cache::SensorCache;
use crate::mqtt_out::MqttOut;
use crate::plugin::Plugin;

/// Pusher-level configuration (the `global` block of the config file).
#[derive(Debug, Clone)]
pub struct PusherConfig {
    /// Topic prefix for all sensors (typically the node's hierarchy path,
    /// e.g. `/lrz/smucng/rack03/node12`).
    pub prefix: String,
    /// Sensor-cache window in nanoseconds (production default: 2 minutes).
    pub cache_window_ns: i64,
    /// Number of sampling threads (production default: 2).  Informational
    /// for the footprint model; the virtual-time scheduler is sequential.
    pub sampling_threads: usize,
}

impl Default for PusherConfig {
    fn default() -> Self {
        PusherConfig {
            prefix: String::new(),
            cache_window_ns: 120 * 1_000_000_000,
            sampling_threads: 2,
        }
    }
}

/// Pusher counters.
#[derive(Debug, Default)]
pub struct PusherStats {
    /// Total readings produced.
    pub readings: AtomicU64,
    /// Group read rounds executed.
    pub group_reads: AtomicU64,
    /// Readings dropped because a plugin was stopped.
    pub skipped_disabled: AtomicU64,
}

struct PluginSlot {
    plugin: Box<dyn Plugin>,
    enabled: AtomicBool,
    /// Next due time per group, ns (grid-aligned).
    next_due: Mutex<Vec<i64>>,
    /// Last raw value per (group, sensor) for delta sensors.
    last_raw: Mutex<HashMap<(usize, usize), f64>>,
}

/// The Pusher.
pub struct Pusher {
    cfg: PusherConfig,
    plugins: RwLock<Vec<PluginSlot>>,
    cache: Arc<SensorCache>,
    out: Arc<MqttOut>,
    stats: PusherStats,
}

impl Pusher {
    /// Create a Pusher publishing through `out`.
    pub fn new(cfg: PusherConfig, out: MqttOut) -> Pusher {
        let cache = Arc::new(SensorCache::new(cfg.cache_window_ns));
        Pusher {
            cfg,
            plugins: RwLock::new(Vec::new()),
            cache,
            out: Arc::new(out),
            stats: PusherStats::default(),
        }
    }

    /// Register a plugin (start enabled).  Returns its index.
    pub fn add_plugin(&self, plugin: Box<dyn Plugin>) -> usize {
        let groups = plugin.groups().len();
        let mut plugins = self.plugins.write();
        plugins.push(PluginSlot {
            plugin,
            enabled: AtomicBool::new(true),
            next_due: Mutex::new(vec![0; groups]),
            last_raw: Mutex::new(HashMap::new()),
        });
        plugins.len() - 1
    }

    /// Replace a plugin in place, keeping its position; the new plugin's
    /// schedule starts fresh (grid-aligned from 0).  Backs the REST
    /// `reload` endpoint: "one can modify a plugin's configuration file at
    /// runtime and trigger a reload of the configuration, which allows a
    /// seamless re-configuration without interrupting the Pusher"
    /// (paper §5.3).  Returns false when no plugin has that name.
    pub fn replace_plugin(&self, name: &str, plugin: Box<dyn Plugin>) -> bool {
        let mut plugins = self.plugins.write();
        for slot in plugins.iter_mut() {
            if slot.plugin.name() == name {
                let groups = plugin.groups().len();
                slot.plugin = plugin;
                *slot.next_due.lock() = vec![0; groups];
                slot.last_raw.lock().clear();
                slot.enabled.store(true, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// Names of registered plugins.
    pub fn plugin_names(&self) -> Vec<String> {
        self.plugins.read().iter().map(|s| s.plugin.name().to_string()).collect()
    }

    /// Total sensors across plugins.
    pub fn sensor_count(&self) -> usize {
        self.plugins.read().iter().map(|s| s.plugin.sensor_count()).sum()
    }

    /// Enable/disable a plugin by name (REST start/stop).  Returns whether
    /// the plugin exists.
    pub fn set_plugin_enabled(&self, name: &str, enabled: bool) -> bool {
        let plugins = self.plugins.read();
        for slot in plugins.iter() {
            if slot.plugin.name() == name {
                slot.enabled.store(enabled, Ordering::SeqCst);
                return true;
            }
        }
        false
    }

    /// Is the plugin currently sampling?
    pub fn plugin_enabled(&self, name: &str) -> Option<bool> {
        self.plugins
            .read()
            .iter()
            .find(|s| s.plugin.name() == name)
            .map(|s| s.enabled.load(Ordering::SeqCst))
    }

    /// The sensor cache (shared with the REST server).
    pub fn cache(&self) -> &Arc<SensorCache> {
        &self.cache
    }

    /// The output stage.
    pub fn out(&self) -> &Arc<MqttOut> {
        &self.out
    }

    /// Counters.
    pub fn stats(&self) -> &PusherStats {
        &self.stats
    }

    /// Pusher configuration.
    pub fn config(&self) -> &PusherConfig {
        &self.cfg
    }

    /// The earliest pending group deadline, or `None` without plugins.
    pub fn next_deadline(&self) -> Option<i64> {
        // Disabled plugins are included so their schedule keeps advancing
        // (skipped reads are counted and re-enabling resumes on-grid).
        let plugins = self.plugins.read();
        plugins.iter().flat_map(|s| s.next_due.lock().iter().copied().collect::<Vec<_>>()).min()
    }

    /// Sample every group due at or before `now_ns`; returns readings made.
    /// What the round publishes is handed to the output stage's connection
    /// before this returns.
    pub fn sample_due(&self, now_ns: i64) -> usize {
        let mut produced = 0usize;
        let plugins = self.plugins.read();
        for slot in plugins.iter() {
            if !slot.enabled.load(Ordering::Relaxed) {
                // keep the schedule moving so re-enabling resumes on-grid
                let mut due = slot.next_due.lock();
                for (g, d) in due.iter_mut().enumerate() {
                    let interval_ns = slot.plugin.groups()[g].interval_ms as i64 * 1_000_000;
                    while *d <= now_ns {
                        *d += interval_ns;
                        self.stats.skipped_disabled.fetch_add(1, Ordering::Relaxed);
                    }
                }
                continue;
            }
            let group_count = slot.plugin.groups().len();
            for g in 0..group_count {
                loop {
                    let due = {
                        let due = slot.next_due.lock();
                        due[g]
                    };
                    if due > now_ns {
                        break;
                    }
                    produced += self.read_one_group(slot, g, due);
                    let interval_ns = slot.plugin.groups()[g].interval_ms.max(1) as i64 * 1_000_000;
                    let mut nd = slot.next_due.lock();
                    nd[g] = due + interval_ns;
                }
            }
        }
        drop(plugins);
        self.out.send_staged();
        produced
    }

    fn read_one_group(&self, slot: &PluginSlot, g: usize, ts: i64) -> usize {
        self.stats.group_reads.fetch_add(1, Ordering::Relaxed);
        let raw = slot.plugin.read_group(g, ts);
        let group = &slot.plugin.groups()[g];
        let mut produced = 0usize;
        for (sensor_idx, raw_value) in raw {
            let Some(spec) = group.sensors.get(sensor_idx) else { continue };
            let value = if spec.delta {
                let mut last = slot.last_raw.lock();
                let prev = last.insert((g, sensor_idx), raw_value);
                match prev {
                    // first observation of a counter: no delta to publish yet
                    None => continue,
                    Some(prev) => (raw_value - prev) * spec.scale,
                }
            } else {
                raw_value * spec.scale
            };
            let topic = format!("{}{}", self.cfg.prefix, spec.mqtt_suffix);
            self.cache.insert(&topic, ts, value);
            self.out.push(&topic, ts, value);
            produced += 1;
        }
        self.stats.readings.fetch_add(produced as u64, Ordering::Relaxed);
        produced
    }

    /// Drive the scheduler in virtual time up to `until_ns`.
    ///
    /// Jumps from deadline to deadline (discrete-event style); returns total
    /// readings produced.
    pub fn run_virtual(&self, until_ns: i64) -> usize {
        let mut produced = 0usize;
        while let Some(next) = self.next_deadline() {
            if next > until_ns {
                break;
            }
            produced += self.sample_due(next);
        }
        self.out.flush();
        produced
    }

    /// Drive the scheduler against the wall clock for `duration`.
    ///
    /// Spawns no threads: sleeps until each deadline (adequate for the
    /// examples; the paper's two sampling threads matter only for very large
    /// in-band sensor counts).
    pub fn run_real(&self, duration: Duration) -> usize {
        let start = Instant::now();
        let mut produced = 0usize;
        // map wall time onto the virtual deadline axis at ns resolution
        while start.elapsed() < duration {
            let now_ns = start.elapsed().as_nanos() as i64;
            produced += self.sample_due(now_ns);
            let next = self.next_deadline().unwrap_or(now_ns + 1_000_000);
            let sleep_ns = (next - start.elapsed().as_nanos() as i64).max(0);
            let remaining = duration.saturating_sub(start.elapsed());
            std::thread::sleep(Duration::from_nanos(sleep_ns as u64).min(remaining));
        }
        self.out.flush();
        produced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mqtt_out::{MqttBackend, SendPolicy};
    use crate::plugin::{SensorGroup, SensorSpec};

    struct Counting {
        groups: Vec<SensorGroup>,
        counter: AtomicU64,
    }

    impl Plugin for Counting {
        fn name(&self) -> &str {
            "counting"
        }
        fn groups(&self) -> &[SensorGroup] {
            &self.groups
        }
        fn read_group(&self, group: usize, _now: i64) -> Vec<(usize, f64)> {
            let v = self.counter.fetch_add(1, Ordering::Relaxed) as f64;
            (0..self.groups[group].sensors.len()).map(|i| (i, v)).collect()
        }
    }

    fn counting_plugin(sensors: usize, interval_ms: u64, delta: bool) -> Box<Counting> {
        let mut g = SensorGroup::new("g", interval_ms);
        for i in 0..sensors {
            let spec = if delta {
                SensorSpec::counter(format!("s{i}"), format!("/s{i}"))
            } else {
                SensorSpec::gauge(format!("s{i}"), format!("/s{i}"))
            };
            g = g.sensor(spec);
        }
        Box::new(Counting { groups: vec![g], counter: AtomicU64::new(0) })
    }

    fn pusher() -> Pusher {
        Pusher::new(
            PusherConfig { prefix: "/test/node0".into(), ..Default::default() },
            MqttOut::new(MqttBackend::Null, SendPolicy::Continuous),
        )
    }

    #[test]
    fn samples_on_interval_grid() {
        let p = pusher();
        p.add_plugin(counting_plugin(3, 100, false));
        // run 1 virtual second: reads at 0, 100ms, ..., 1000ms = 11 rounds
        let produced = p.run_virtual(1_000_000_000);
        assert_eq!(produced, 11 * 3);
        assert_eq!(p.stats().group_reads.load(Ordering::Relaxed), 11);
        // cache saw the latest values
        assert!(p.cache().latest("/test/node0/s0").is_some());
    }

    #[test]
    fn multiple_plugins_interleave() {
        let p = pusher();
        p.add_plugin(counting_plugin(1, 100, false));
        p.add_plugin(counting_plugin(1, 250, false));
        p.run_virtual(1_000_000_000);
        // 11 reads of the fast group + 5 of the slow (0,250,500,750,1000)
        assert_eq!(p.stats().group_reads.load(Ordering::Relaxed), 11 + 5);
    }

    #[test]
    fn delta_sensors_publish_differences() {
        let p = pusher();
        p.add_plugin(counting_plugin(1, 1000, true));
        let produced = p.run_virtual(3_000_000_000);
        // counter increments by 1 each read; first read publishes nothing
        assert_eq!(produced, 3);
        let w = p.cache().window("/test/node0/s0");
        assert!(w.iter().all(|r| r.value == 1.0), "{w:?}");
    }

    #[test]
    fn stop_start_plugin() {
        let p = pusher();
        p.add_plugin(counting_plugin(1, 100, false));
        assert_eq!(p.plugin_enabled("counting"), Some(true));
        assert!(p.set_plugin_enabled("counting", false));
        let produced = p.run_virtual(1_000_000_000);
        assert_eq!(produced, 0);
        assert!(p.stats().skipped_disabled.load(Ordering::Relaxed) > 0);
        assert!(p.set_plugin_enabled("counting", true));
        assert!(!p.set_plugin_enabled("ghost", true));
        assert!(p.run_virtual(2_000_000_000) > 0);
    }

    #[test]
    fn readings_flow_to_output() {
        let counted = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counted);
        let out = MqttOut::new(
            MqttBackend::Callback(Arc::new(move |_t, _p| {
                c2.fetch_add(1, Ordering::Relaxed);
            })),
            SendPolicy::Continuous,
        );
        let p = Pusher::new(PusherConfig::default(), out);
        p.add_plugin(counting_plugin(5, 500, false));
        p.run_virtual(1_000_000_000);
        assert_eq!(counted.load(Ordering::Relaxed), 3 * 5);
    }

    #[test]
    fn run_real_produces_samples() {
        let p = pusher();
        p.add_plugin(counting_plugin(2, 20, false));
        let produced = p.run_real(Duration::from_millis(120));
        // ~6 rounds of 2 sensors; allow generous scheduling slack
        assert!(produced >= 6, "only {produced} readings");
    }

    #[test]
    fn sensor_count_aggregates() {
        let p = pusher();
        p.add_plugin(counting_plugin(7, 100, false));
        p.add_plugin(counting_plugin(3, 100, false));
        assert_eq!(p.sensor_count(), 10);
        assert_eq!(p.plugin_names(), vec!["counting".to_string(), "counting".to_string()]);
    }
}
