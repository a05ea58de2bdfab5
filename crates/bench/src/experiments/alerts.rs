//! Alert-engine overhead study: sustained MQTT-payload ingest through the
//! Collect Agent with a live rule set evaluating on-stream versus no
//! engine installed.
//!
//! The agent hands every decoded publish to
//! `AlertEngine::observe_batch`, which pays the rule scan, filter match,
//! lock and instance lookup once per batch and lets steady-state
//! threshold/absence rules skip the per-reading scan via a shared min/max
//! envelope.  The design claim is that an always-on rule set of threshold
//! and absence rules costs a couple of float compares per reading —
//! sustained ingest must not slow down measurably.  The acceptance bar is
//! **< 2 % ingest overhead** with a realistic always-on rule set
//! (threshold above, threshold below, absence, and a non-matching rule),
//! judged on the directly timed engine cost per reading over the
//! measured per-reading ingest cost — the A/B wall delta is reported as
//! context but drowns in scheduler noise at this effect size.  Both arms
//! must settle to bit-identical store contents.
//! Per-reading statistical detectors (`zscore`, `rate_above`) do Welford
//! or rate arithmetic on every reading of their matched topics by design
//! and sit outside this bar — they are opt-in per topic, not part of the
//! always-on cost.

use std::sync::Arc;
use std::time::Instant;

use dcdb_core::alerts::{AlertCondition, AlertEngine, AlertRule};
use dcdb_mqtt::payload::encode_readings;
use dcdb_sim::workloads::BehaviorTrace;
use dcdb_sim::{Arch, Workload};
use dcdb_store::reading::{Reading, TimeRange};
use dcdb_store::{NodeConfig, StoreCluster};

/// Sampling interval of the simulated sensor (1 s).
pub const INTERVAL_NS: i64 = 1_000_000_000;
/// Readings ingested per run — big enough that one rep runs a few hundred
/// milliseconds, amortizing scheduler noise on small hosts.
pub const TOTAL_READINGS: usize = 1024 * 1024;
/// Readings per MQTT publish.
pub const BATCH: usize = 64;
/// Memtable budget (same shape as the obs study: flushes happen, but the
/// arms measure the ingest fast path).
pub const FLUSH_ENTRIES: usize = 64 * 1024;
/// Interleaved repetitions per arm; best-of compared.  Each rep is well
/// under a second, so a few extra cost nothing and damp scheduler noise
/// on small hosts.
pub const REPS: usize = 5;

const TOPIC: &str = "/r0/n0/power";

/// The always-on rule set the enabled arm evaluates against every batch:
/// a matching upper threshold (crosses with the workload, then holds
/// firing), a matching lower threshold that never trips (the healthy
/// steady state — must ride the envelope skip), a matching absence rule
/// (readings keep arriving, so it stays inactive), and a rule whose
/// filter never matches (the common case in a large deployment — one
/// failed filter match per batch).
fn rules() -> Vec<AlertRule> {
    vec![
        AlertRule::new("hot", TOPIC, AlertCondition::Above(300.0)),
        AlertRule::new("cold", TOPIC, AlertCondition::Below(5.0)),
        AlertRule::new("stale", TOPIC, AlertCondition::Absent { timeout_ns: 3_600 * INTERVAL_NS }),
        AlertRule::new("other", "/r9/elsewhere", AlertCondition::Above(0.0)),
    ]
}

/// One arm of the study.
#[derive(Debug, Clone)]
pub struct AlertArm {
    /// Whether the alert engine was installed.
    pub enabled: bool,
    /// Wall seconds of every repetition, in run order.
    pub walls_s: Vec<f64>,
    /// Best (minimum) wall seconds across repetitions.
    pub wall_s: f64,
    /// Readings per second at the best wall time.
    pub throughput: f64,
    /// XOR fingerprint of the settled store contents.
    pub fingerprint: u64,
    /// State-machine transitions the engine took (0 when off) — proof the
    /// enabled arm did real evaluation work, not a disarmed no-op.
    pub transitions: u64,
}

/// One ingest run; returns `(wall_s, fingerprint, transitions)`.
fn run_once(payloads: &[Vec<u8>], enabled: bool) -> (f64, u64, u64) {
    let cluster = Arc::new(StoreCluster::new(
        NodeConfig {
            memtable_flush_entries: FLUSH_ENTRIES,
            maintenance_threads: 2,
            ..Default::default()
        },
        dcdb_sid::PartitionMap::prefix(1, 2),
        1,
    ));
    let agent = dcdb_collectagent::CollectAgent::new(Arc::clone(&cluster));
    let engine = enabled.then(|| {
        let e = Arc::new(AlertEngine::with_rules(rules()));
        agent.sensor_db().set_alert_engine(Arc::clone(&e));
        e
    });
    let wall = Instant::now();
    for payload in payloads {
        agent.handle_publish(TOPIC, payload);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    cluster.quiesce();
    cluster.maintain();
    let sid = agent.registry().sids_under(TOPIC).first().expect("topic registered").1;
    let all = cluster.query(sid, TimeRange::all());
    assert_eq!(all.len(), TOTAL_READINGS, "ingest lost readings (enabled={enabled})");
    let fingerprint =
        all.iter().fold(0u64, |acc, r| acc ^ r.value.to_bits().rotate_left((r.ts % 63) as u32));
    (wall_s, fingerprint, engine.map_or(0, |e| e.transitions()))
}

/// The full study.
#[derive(Debug, Clone)]
pub struct AlertReport {
    /// Engine-installed arm.
    pub on: AlertArm,
    /// No-engine arm.
    pub off: AlertArm,
    /// Nanoseconds per reading spent inside `observe_batch`, measured by
    /// timing the engine directly over the same batches (best of
    /// [`REPS`]).  The A/B wall difference drowns in scheduler noise on
    /// shared hosts once the engine is cheap enough, so the acceptance
    /// bar divides this stable component cost by the ingest cost instead.
    pub engine_ns_per_reading: f64,
    /// Host parallelism the run saw (results are host-shaped).
    pub host_threads: usize,
}

impl AlertReport {
    /// Fractional wall-clock overhead of the alerting arm over plain
    /// ingest (0.02 = 2 %); negative when noise favours the alerting arm.
    /// Informational — host noise swamps it when the engine cost is small.
    pub fn overhead_wall(&self) -> f64 {
        self.on.wall_s / self.off.wall_s.max(1e-9) - 1.0
    }

    /// Fractional ingest overhead of alerting, from the directly measured
    /// engine cost over the measured per-reading ingest cost.  This is
    /// the acceptance-bar number: both components are stable where the
    /// A/B wall difference is not.
    pub fn overhead(&self) -> f64 {
        let ingest_ns = self.off.wall_s.max(1e-9) * 1e9 / TOTAL_READINGS as f64;
        self.engine_ns_per_reading / ingest_ns
    }

    /// Both arms settled to bit-identical contents.
    pub fn identical(&self) -> bool {
        self.on.fingerprint == self.off.fingerprint
    }
}

/// Time `observe_batch` directly over the same readings the arms ingest:
/// best-of-[`REPS`] nanoseconds per reading.  The engine sees the batches
/// exactly as `CollectAgent::handle_publish` would hand them over.
fn engine_cost_ns(values: &[f64]) -> f64 {
    let engine = AlertEngine::with_rules(rules());
    let batches: Vec<Vec<Reading>> = values
        .chunks(BATCH)
        .enumerate()
        .map(|(b, chunk)| {
            let base = (b * BATCH) as i64;
            chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| Reading::new((base + i as i64) * INTERVAL_NS, v))
                .collect()
        })
        .collect();
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for batch in &batches {
            engine.observe_batch(TOPIC, batch);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / values.len() as f64);
    }
    best
}

/// Run both arms, interleaved rep by rep.
pub fn run() -> AlertReport {
    let mut trace = BehaviorTrace::new(Workload::Hpl, Arch::Skylake.spec(), INTERVAL_NS, 31);
    let values: Vec<f64> = trace.take(TOTAL_READINGS).iter().map(|s| s.power_w).collect();
    let payloads: Vec<Vec<u8>> = values
        .chunks(BATCH)
        .enumerate()
        .map(|(b, chunk)| {
            let base = (b * BATCH) as i64;
            let readings: Vec<(i64, f64)> = chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| ((base + i as i64) * INTERVAL_NS, v))
                .collect();
            encode_readings(&readings).to_vec()
        })
        .collect();

    let mut arms: Vec<AlertArm> = [true, false]
        .into_iter()
        .map(|enabled| AlertArm {
            enabled,
            walls_s: Vec::new(),
            wall_s: f64::INFINITY,
            throughput: 0.0,
            fingerprint: 0,
            transitions: 0,
        })
        .collect();
    for _ in 0..REPS {
        for arm in &mut arms {
            let (wall_s, fingerprint, transitions) = run_once(&payloads, arm.enabled);
            arm.walls_s.push(wall_s);
            arm.wall_s = arm.wall_s.min(wall_s);
            arm.fingerprint = fingerprint;
            arm.transitions = transitions;
        }
    }
    for arm in &mut arms {
        arm.throughput = TOTAL_READINGS as f64 / arm.wall_s;
    }
    let off = arms.pop().expect("two arms");
    let on = arms.pop().expect("two arms");
    AlertReport {
        on,
        off,
        engine_ns_per_reading: engine_cost_ns(&values),
        host_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

/// Render the two arms side by side.
pub fn render(r: &AlertReport) -> String {
    let row = |a: &AlertArm| {
        vec![
            if a.enabled { "on".to_string() } else { "off".to_string() },
            format!("{:.3}", a.wall_s),
            format!("{:.0}", a.throughput / 1e3),
            a.walls_s.iter().map(|w| format!("{w:.3}")).collect::<Vec<_>>().join(" "),
            a.transitions.to_string(),
        ]
    };
    crate::report::table(
        &["alerting", "best wall s", "kread/s", "all walls s", "transitions"],
        &[row(&r.on), row(&r.off)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rep_arms_hold_identical_data() {
        // a tiny smoke version; the full run is the release bin's job
        let readings: Vec<(i64, f64)> =
            (0..2 * BATCH as i64).map(|i| (i * INTERVAL_NS, 100.0 + (i % 7) as f64)).collect();
        let payloads: Vec<Vec<u8>> =
            readings.chunks(BATCH).map(|c| encode_readings(c).to_vec()).collect();
        let run_small = |enabled: bool| {
            let cluster = Arc::new(StoreCluster::single());
            let agent = dcdb_collectagent::CollectAgent::new(Arc::clone(&cluster));
            let engine = enabled.then(|| {
                let e = Arc::new(AlertEngine::with_rules(rules()));
                agent.sensor_db().set_alert_engine(Arc::clone(&e));
                e
            });
            for p in &payloads {
                agent.handle_publish(TOPIC, p);
            }
            let sid = agent.registry().sids_under(TOPIC).first().expect("registered").1;
            let all = cluster.query(sid, TimeRange::all());
            let fp = all
                .iter()
                .fold(0u64, |acc, r| acc ^ r.value.to_bits().rotate_left((r.ts % 63) as u32));
            (all.len(), fp, engine.map_or(0, |e| e.transitions()))
        };
        let (n_on, fp_on, trans_on) = run_small(true);
        let (n_off, fp_off, trans_off) = run_small(false);
        assert_eq!(n_on, readings.len());
        assert_eq!(n_off, readings.len());
        assert_eq!(fp_on, fp_off, "alerting changed stored contents");
        assert_eq!(trans_off, 0, "no engine, no transitions");
        let _ = trans_on; // values below every threshold: zero transitions is fine
    }
}
