//! One run of one workload: set-up, phases, checks, metrics.
//!
//! An untraced run measures the end-to-end metrics: paced phase (latencies
//! and CPU at the fixed offered load), ingest-saturation phase, query-
//! saturation phase.  A traced run measures the per-layer metrics (see
//! [`crate::layers`]).  Both count every operation attempted and failed and
//! check every output against the oracle.

use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{self, Sample};
use crate::json::Value;
use crate::live::{Live, QUERY_TIMEOUT};
use crate::oracle;
use crate::proc;
use crate::stats;
use crate::sut;
use crate::trace::Tracer;
use crate::workload::{self, Inputs, PUSHERS};

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Seconds of measurement, shared out among the phases.
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing, where it has any.
    pub samples: Option<u64>,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit, samples: None }
}

pub struct Outcome {
    /// Every output checked was right and nothing was lost.
    pub correct: bool,
    /// The generator kept its schedule; an invalid run's numbers measure
    /// the host's scheduler and are not reported.
    pub valid: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Everything above and more, for the result file.
    pub detail: Value,
}

/// Shares of `--seconds` an untraced run gives its three phases.
const PACED_SHARE: f64 = 0.5;
const QUERY_SATURATION_SHARE: f64 = 0.2;
const INGEST_SATURATION_SHARE: f64 = 0.3;
/// Shares a traced run gives its untraced reference and its traced phase;
/// the rest is left for the replays.
pub const REFERENCE_SHARE: f64 = 0.2;
pub const TRACED_SHARE: f64 = 0.4;
/// Set-ups per full run, `setup_s` being their median: three, and for as
/// long as the extra ones have taken less than [`EXTRA_SETUPS_S`] in all, up
/// to nine.  A set-up of milliseconds is at the mercy of whatever else the
/// host runs in those milliseconds and needs the larger sample; one of
/// seconds does not, and cannot afford it.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const EXTRA_SETUPS_S: f64 = 1.0;
/// Runs shorter than this are smoke runs: one set-up, no validity verdict.
const FULL_RUN_S: f64 = 10.0;
/// A paced phase whose generator was late on more than this share of its
/// ticks is invalid.
const MAX_LATE_SHARE: f64 = 0.01;
/// Live sensors and preloaded sensors read back in full at the end.
const READBACK_LIVE: usize = 16;
const READBACK_HISTORY: usize = 4;

/// Run two closures on the two generator threads and wait for both.
pub fn on_generator_threads<A: Send, B: Send>(
    ingest: impl FnOnce() -> A + Send,
    query: impl FnOnce() -> B + Send,
) -> (A, B) {
    std::thread::scope(|s| {
        let spawn = std::thread::Builder::new;
        let a = spawn().name("gen-ingest".into()).spawn_scoped(s, ingest).expect("spawn generator");
        let b = spawn().name("gen-query".into()).spawn_scoped(s, query).expect("spawn generator");
        (a.join().expect("ingest generator panicked"), b.join().expect("query generator panicked"))
    })
}

pub fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s.max(0.05))
}

/// Both generators paced for `duration`; returns their samples and the CPU
/// seconds the ingest generator thread used: the pushers' share of the
/// process (the threads live for one phase only).
pub fn paced_phase(
    live: &mut Live,
    duration: Duration,
    scrape_every: Option<u64>,
) -> (Vec<Sample>, Vec<Sample>, f64) {
    let Live { shared, stack, ingest, query, .. } = live;
    let (shared, stack) = (&*shared, &*stack);
    let ((ticks, pusher_cpu_s), queries) = on_generator_threads(
        || (ingest.paced(shared, stack, duration), proc::thread_cpu_seconds()),
        || query.paced(shared, stack, duration, scrape_every),
    );
    (ticks, queries, pusher_cpu_s)
}

/// Median and 99th percentile of latencies in microseconds; operations that
/// failed count as having taken [`QUERY_TIMEOUT`].
pub struct Latency {
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
    /// Highest percentile the sample count supports, and its value.
    pub top: Option<(f64, f64)>,
}

pub fn latency(samples: &[Sample], right: &[bool]) -> Latency {
    let timed_out = QUERY_TIMEOUT.as_nanos() as u64;
    let mut us: Vec<f64> = samples
        .iter()
        .zip(right)
        .map(|(s, ok)| if *ok { s.latency_ns() } else { timed_out } as f64 / 1e3)
        .collect();
    us.sort_by(f64::total_cmp);
    if us.is_empty() {
        return Latency { p50_us: f64::NAN, p99_us: f64::NAN, samples: 0, top: None };
    }
    Latency {
        p50_us: stats::percentile(&us, 50.0),
        p99_us: stats::percentile(&us, 99.0),
        samples: us.len() as u64,
        top: stats::highest_supported_percentile(us.len()).map(|p| (p, stats::percentile(&us, p))),
    }
}

/// How late the generator ran in a paced phase.
pub struct Lateness {
    pub p99_us: f64,
    pub late_share: f64,
}

/// Lateness of a paced phase whose operations are `period` apart: an
/// operation is late when the generator started it more than half a period
/// after it could have.
pub fn lateness(samples: &[Sample], period: Duration) -> Lateness {
    let mut us: Vec<f64> = gen::lateness_ns(samples).iter().map(|&l| l as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    Lateness {
        p99_us: if us.is_empty() { 0.0 } else { stats::percentile(&us, 99.0) },
        late_share: gen::late_share(samples, period.as_nanos() as u64 / 2),
    }
}

pub fn tick_period(inputs: &Inputs) -> Duration {
    Duration::from_nanos(inputs.spec.tick_period_ns() as u64)
}

pub fn query_period(inputs: &Inputs) -> Duration {
    Duration::from_secs_f64(1.0 / inputs.spec.query_rate)
}

/// Totals of operations attempted and failed, by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub readings_sent: u64,
    pub readings_stored: u64,
    pub readings_lost: u64,
    pub messages_dropped: u64,
    pub markers: u64,
    pub markers_failed: u64,
    pub queries: u64,
    pub queries_failed: u64,
    pub readbacks: u64,
    pub readbacks_failed: u64,
}

impl Ops {
    pub fn attempted(&self) -> u64 {
        self.readings_sent + self.markers + self.queries + self.readbacks
    }

    pub fn failed(&self) -> u64 {
        self.readings_lost
            + self.messages_dropped
            + self.markers_failed
            + self.queries_failed
            + self.readbacks_failed
    }

    fn to_json(self) -> Value {
        let n = |v: u64| Value::Num(v as f64);
        Value::obj([
            ("readings_sent", n(self.readings_sent)),
            ("readings_stored", n(self.readings_stored)),
            ("readings_lost", n(self.readings_lost)),
            ("messages_dropped", n(self.messages_dropped)),
            ("markers", n(self.markers)),
            ("markers_failed", n(self.markers_failed)),
            ("queries", n(self.queries)),
            ("queries_failed", n(self.queries_failed)),
            ("readbacks", n(self.readbacks)),
            ("readbacks_failed", n(self.readbacks_failed)),
        ])
    }
}

/// Final checks once the generators have stopped: ship what the burst
/// queues hold, wait for the pipe to drain, compare totals, and read a
/// sample of sensors back in full.
pub fn final_checks(live: &mut Live) -> (Ops, Vec<String>) {
    live.ingest.pushers().flush_all();
    let Live { shared, stack, ingest, .. } = live;
    ingest.drain(shared, stack);
    live.verify_queries();
    let counters = live.stack.counters();
    let inputs = &live.shared.inputs;
    let sent = live.ingest.pushers().out_totals().readings + live.preloaded;
    let mut ops = Ops {
        readings_sent: sent,
        readings_stored: counters.agent_readings,
        readings_lost: sent.abs_diff(counters.agent_readings),
        messages_dropped: counters.agent_dropped,
        markers: live.ingest.markers,
        markers_failed: live.ingest.markers_failed,
        queries: live.query.queries,
        queries_failed: live.query.queries_failed,
        ..Ops::default()
    };
    let mut complaints = live.query.complaints.clone();
    if live.ingest.readings_published != live.ingest.pushers().out_totals().readings {
        complaints.push(format!(
            "pushers sampled {} readings but shipped {}",
            live.ingest.readings_published,
            live.ingest.pushers().out_totals().readings
        ));
        ops.readbacks_failed += 1;
    }
    let mut check = |what: String, verdict: Result<(), String>| {
        ops.readbacks += 1;
        if let Err(e) = verdict {
            ops.readbacks_failed += 1;
            complaints.push(format!("{what}: {e}"));
        }
    };
    for n in 0..READBACK_LIVE {
        let r = workload::mix64(inputs.seed ^ (0xbeef << 16 | n as u64));
        let (k, i) =
            ((r % PUSHERS as u64) as usize, ((r >> 8) % inputs.spec.sensors as u64) as usize);
        let topic = inputs.tester_topic(k, i);
        let got = live.stack.read_back(&topic);
        let verdict =
            oracle::check_tester_readback(inputs.spec.sample_ns, i, live.ingest.last_now(k), &got);
        check(topic, verdict);
    }
    for n in 0..READBACK_HISTORY.min(inputs.history_topics().len()) {
        let s = (workload::mix64(inputs.seed ^ (0xfeed << 16 | n as u64))
            % inputs.history_topics().len() as u64) as usize;
        let got = live.stack.read_back(&inputs.history_topics()[s]);
        check(inputs.history_topics()[s].clone(), oracle::check_history_readback(inputs, s, &got));
    }
    (ops, complaints)
}

/// The CPU the run was confined to (see [`crate::affinity`]).
static PINNED_TO: std::sync::OnceLock<Option<usize>> = std::sync::OnceLock::new();

fn host_json() -> Value {
    let pinned = PINNED_TO.get().copied().flatten();
    Value::obj([
        ("available_parallelism", Value::Num(proc::available_parallelism() as f64)),
        ("pinned_to_cpu", pinned.map_or(Value::Null, |c| Value::Num(c as f64))),
        ("host_cpus", Value::Num(proc::host_cpus() as f64)),
        ("generator_threads", Value::Num(2.0)),
        ("generator_connections", Value::Num(2.0)),
    ])
}

/// The frozen constants a result was measured with.
pub fn config_json(inputs: &Inputs) -> Value {
    let s = &inputs.spec;
    Value::obj([
        ("store_cache_readings", Value::Num(sut::CACHE_READINGS as f64)),
        ("store_maintenance_threads", Value::Num(sut::MAINTENANCE_THREADS as f64)),
        ("pushers", Value::Num(PUSHERS as f64)),
        ("sensors_per_pusher", Value::Num(s.sensors as f64)),
        ("sample_interval_ms", Value::Num(s.sample_ns as f64 / 1e6)),
        ("burst", Value::Bool(s.burst)),
        ("paced_readings_per_s", Value::Num(s.paced_readings_per_s())),
        ("paced_ticks_per_s", Value::Num(1e9 / s.tick_period_ns() as f64)),
        ("paced_queries_per_s", Value::Num(s.query_rate)),
        ("preloaded_sensors", Value::Num(inputs.history_topics().len() as f64)),
        ("preloaded_readings_per_sensor", Value::Num(inputs.history_len() as f64)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Value::Num(m.value)),
                    ("unit".to_string(), Value::str(m.unit)),
                ];
                if let Some(n) = m.samples {
                    fields.push(("samples".to_string(), Value::Num(n as f64)));
                }
                (m.name.to_string(), Value::Obj(fields))
            })
            .collect(),
    )
}

pub fn detail_json(
    opts: &Options,
    inputs: &Inputs,
    valid: bool,
    ops: &Ops,
    complaints: &[String],
    metrics: &[Metric],
    extra: Vec<(&'static str, Value)>,
) -> Value {
    let mut fields = vec![
        ("workload", Value::str(inputs.spec.name)),
        ("seed", Value::Num(opts.seed as f64)),
        ("seconds", Value::Num(opts.seconds)),
        ("traced", Value::Bool(opts.trace)),
        ("valid", Value::Bool(valid)),
        ("correct", Value::Bool(ops.failed() == 0)),
        ("attempted", Value::Num(ops.attempted() as f64)),
        ("failed", Value::Num(ops.failed() as f64)),
        ("ops", ops.to_json()),
        ("complaints", Value::Arr(complaints.iter().map(Value::str).collect())),
        ("host", host_json()),
        ("config", config_json(inputs)),
        ("metrics", metrics_json(metrics)),
    ];
    fields.extend(extra);
    Value::obj(fields)
}

fn inputs_for(workload: &str, seed: u64) -> io::Result<Inputs> {
    let spec = workload::find(workload)
        .ok_or_else(|| io::Error::other(format!("unknown workload {workload:?}")))?;
    Ok(Inputs::new(*spec, seed))
}

pub fn run(opts: &Options) -> io::Result<Outcome> {
    let inputs = inputs_for(&opts.workload, opts.seed)?;
    if opts.trace {
        crate::layers::run_traced(opts, &inputs)
    } else {
        run_untraced(opts, &inputs)
    }
}

/// Set the pipeline up; returns it with the seconds each set-up took: with
/// `repeat`, the extra ones described at [`MIN_SETUPS`] first.  Those run in
/// a child process each (`setup` subcommand): a pipeline torn down in this
/// process would leave its memory behind, and what the allocator kept of it
/// would show in this run's peak memory.
pub fn setup(
    opts: &Options,
    inputs: &Inputs,
    tracer: Option<Arc<Tracer>>,
    repeat: bool,
) -> io::Result<(Live, Vec<f64>)> {
    let mut times = Vec::new();
    while repeat
        && times.len() + 1 < MAX_SETUPS
        && (times.len() + 1 < MIN_SETUPS || times.iter().sum::<f64>() < EXTRA_SETUPS_S)
    {
        let out = std::process::Command::new(std::env::current_exe()?)
            .args(["setup", "--workload", inputs.spec.name, "--seed", &opts.seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let seconds = String::from_utf8_lossy(&out.stdout).trim().parse::<f64>();
        match seconds {
            Ok(s) if out.status.success() => times.push(s),
            _ => {
                return Err(io::Error::other(format!(
                    "set-up in a child process failed: {}",
                    out.status
                )))
            }
        }
    }
    let (live, seconds) = timed_setup(inputs, tracer)?;
    times.push(seconds);
    Ok((live, times))
}

/// One set-up on the one CPU, timed.  The pause before the clock starts lets
/// the scheduler forget the CPU time of the process's own start-up: without
/// it a 7.5 ms set-up took 13 ms every other time, whenever the process had
/// started on the CPU it then pinned itself to.
fn timed_setup(inputs: &Inputs, tracer: Option<Arc<Tracer>>) -> io::Result<(Live, f64)> {
    proc::available_parallelism(); // noted before the mask narrows
    PINNED_TO.get_or_init(crate::affinity::pin_process);
    std::thread::sleep(Duration::from_millis(30));
    let t0 = Instant::now();
    let live = Live::setup(inputs, tracer)?;
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// One set-up and nothing else; returns the seconds it took.
pub fn setup_only(workload: &str, seed: u64) -> io::Result<f64> {
    let (live, seconds) = timed_setup(&inputs_for(workload, seed)?, None)?;
    leave_running(live);
    Ok(seconds)
}

/// The run is over and the process about to exit: do not wait for the merge
/// the ingest-saturation phase left running in the background.
pub fn leave_running(live: Live) {
    std::mem::forget(live);
}

/// A short paced stretch nobody measures: page in, fill caches, let every
/// thread find its place.
pub fn warm_up(live: &mut Live, seconds: f64) {
    paced_phase(live, secs((seconds / 20.0).min(1.0)), None);
    live.verify_queries();
}

fn run_untraced(opts: &Options, inputs: &Inputs) -> io::Result<Outcome> {
    let full = opts.seconds >= FULL_RUN_S;
    let (mut live, setups) = setup(opts, inputs, None, full)?;
    let mut rss = vec![("setup", Value::Num(proc::rss_mib()))];
    warm_up(&mut live, opts.seconds);

    // paced: latencies and CPU at the fixed offered load
    let (cpu0, t0) = (proc::cpu_seconds(), Instant::now());
    let (ticks, queries, _) = paced_phase(&mut live, secs(opts.seconds * PACED_SHARE), None);
    let cores_busy = (proc::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
    let right = live.query.verify_each(inputs);
    let ingest_latency = latency(&ticks, &ticks.iter().map(|s| s.ok).collect::<Vec<_>>());
    let query_latency = latency(&queries, &right);
    let (tick_late, query_late) =
        (lateness(&ticks, tick_period(inputs)), lateness(&queries, query_period(inputs)));
    // memory and space are read here: up to now the work was fixed, from
    // here on the system takes in as much as it can and both grow with it
    live.settle();
    let peak_rss = proc::peak_rss_mib();
    let stored = live.stack.counters().agent_readings;
    let bytes_per_reading = live.stack.store_bytes() as f64 / stored.max(1) as f64;
    rss.push(("paced", Value::Num(proc::rss_mib())));

    // query saturation: one connection closed-loop, ingest keeps its pace
    let t0 = Instant::now();
    {
        let duration = secs(opts.seconds * QUERY_SATURATION_SHARE);
        let Live { shared, stack, ingest, query, .. } = &mut live;
        let (shared, stack) = (&*shared, &*stack);
        on_generator_threads(
            || ingest.paced(shared, stack, duration),
            || query.saturate(shared, stack, duration),
        );
    }
    let wall = t0.elapsed();
    let query_capacity = live.verify_queries() as f64 / wall.as_secs_f64();
    live.settle();
    rss.push(("query_saturation", Value::Num(proc::rss_mib())));

    // ingest saturation: pushers flat out, queries keep their pace
    let before = live.stack.counters().agent_readings;
    let wall = {
        let duration = secs(opts.seconds * INGEST_SATURATION_SHARE);
        let Live { shared, stack, ingest, query, .. } = &mut live;
        let (shared, stack) = (&*shared, &*stack);
        on_generator_threads(
            || ingest.saturate(shared, stack, duration),
            || query.paced(shared, stack, duration, None),
        )
        .0
    };
    let ingest_capacity =
        (live.stack.counters().agent_readings - before) as f64 / wall.as_secs_f64();
    rss.push(("ingest_saturation", Value::Num(proc::rss_mib())));

    let (ops, complaints) = final_checks(&mut live);

    let valid = !full || tick_late.late_share <= MAX_LATE_SHARE;
    let timing =
        |name, v: f64, l: &Latency| Metric { name, value: v, unit: "us", samples: Some(l.samples) };
    let metrics = vec![
        Metric {
            samples: Some(setups.len() as u64),
            ..metric("setup_s", stats::median(&setups), "s")
        },
        timing("ingest_latency_p50_us", ingest_latency.p50_us, &ingest_latency),
        timing("query_latency_p50_us", query_latency.p50_us, &query_latency),
        metric("cpu_cores_busy", cores_busy, "cores"),
        metric("ingest_capacity_readings_per_s", ingest_capacity, "1/s"),
        metric("query_capacity_per_s", query_capacity, "1/s"),
        metric("stored_bytes_per_reading", bytes_per_reading, "B"),
        metric("peak_rss_mib", peak_rss, "MiB"),
    ];
    let top = |l: &Latency| match l.top {
        Some((p, v)) => Value::obj([("percentile", Value::Num(p)), ("us", Value::Num(v))]),
        None => Value::Null,
    };
    let extra = vec![
        ("setup_runs_s", Value::Arr(setups.iter().map(|s| Value::Num(*s)).collect())),
        ("rss_mib_after", Value::obj(rss)),
        (
            "generator",
            Value::obj([
                ("ingest_lateness_p99_us", Value::Num(tick_late.p99_us)),
                ("ingest_late_share", Value::Num(tick_late.late_share)),
                ("query_lateness_p99_us", Value::Num(query_late.p99_us)),
                ("query_late_share", Value::Num(query_late.late_share)),
            ]),
        ),
        (
            "highest_supported_percentile",
            Value::obj([
                ("ingest_latency", top(&ingest_latency)),
                ("query_latency", top(&query_latency)),
            ]),
        ),
    ];
    let detail = detail_json(opts, inputs, valid, &ops, &complaints, &metrics, extra);
    leave_running(live);
    Ok(Outcome {
        correct: ops.failed() == 0,
        valid,
        attempted: ops.attempted(),
        failed: ops.failed(),
        metrics,
        detail,
    })
}
