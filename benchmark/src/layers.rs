//! The traced run: per-layer metrics, one layer per workspace crate.
//!
//! Three boundaries are timed live, from outside, during a traced paced
//! phase: `Client::publish_qos0` (behind the pusher's callback backend),
//! `CollectAgent::handle_publish` (the broker's sink) and the REST handler.
//! The split below them comes from replaying a slice of the same inputs,
//! single-threaded, through each layer's public functions.  The phase runs
//! once more with tracing off first; the CPU difference is the overhead.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

use crate::json::Value;
use crate::proc;
use crate::run::{self, metric, Metric, Options, Outcome, REFERENCE_SHARE, TRACED_SHARE};
use crate::stats;
use crate::sut;
use crate::trace::{self, Span, Tracer};
use crate::workload::{Inputs, PRELOAD_CHUNK};

/// Ticks per pusher in the replayed slice (20 000 readings for both live
/// shapes), replays per measurement (the median is kept), queries replayed.
const SLICE_ROUNDS: usize = 2;
const REPLAY_REPS: usize = 3;
const REPLAY_QUERIES: u64 = 48;

/// Long-lived threads whose CPU is the ingest path's, next to the ingest
/// generator thread itself; the rest of the process is the query path's
/// (its fan-in workers are short-lived and unnamed).
const INGEST_THREADS: [&str; 3] = ["mqtt-conn", "mqtt-client", "dcdb-maint"];

fn median_of<T>(mut f: impl FnMut() -> T, key: impl Fn(&T) -> u64) -> T {
    let mut runs: Vec<T> = (0..REPLAY_REPS).map(|_| f()).collect();
    runs.sort_by_key(|r| key(r));
    runs.swap_remove(REPLAY_REPS / 2)
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

/// `1 - part / whole`, or 0 where there is no whole to take a share of.
fn share_left(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        1.0 - part / whole
    } else {
        0.0
    }
}

fn ingest_cpu(by_thread: &BTreeMap<String, f64>) -> f64 {
    by_thread
        .iter()
        .filter(|(name, _)| INGEST_THREADS.iter().any(|p| name.starts_with(p)))
        .map(|(_, s)| s)
        .sum()
}

/// The series `dcdb-compress` sees: what the store flushes for this workload.
fn series_for_compression(inputs: &Inputs, slice: &sut::Slice) -> Vec<Vec<(i64, f64)>> {
    if inputs.history_topics().is_empty() {
        // live data: a sensor's run in a memtable that filled up
        let per_sensor = 256 * 1024 / (inputs.spec.sensors * crate::workload::PUSHERS);
        let n = per_sensor.max(2) as i64;
        let sensors = slice.msgs.len().min(256);
        return (0..sensors)
            .map(|i| {
                (0..n)
                    .map(|r| {
                        (
                            r * inputs.spec.sample_ns,
                            Inputs::tester_value(i, r * inputs.spec.sample_ns),
                        )
                    })
                    .collect()
            })
            .collect();
    }
    // history: one hour of a sensor, as preloaded
    (0..64)
        .map(|s| {
            (0..PRELOAD_CHUNK).map(|k| (inputs.history_ts(k), inputs.history_value(s, k))).collect()
        })
        .collect()
}

pub fn run_traced(opts: &Options, inputs: &Inputs) -> io::Result<Outcome> {
    let tracer = Arc::new(Tracer::new());
    let (mut live, _) = run::setup(opts, inputs, Some(Arc::clone(&tracer)), false)?;
    run::warm_up(&mut live, opts.seconds);

    // reference: the same phase, wrappers in place, tracing off
    let (cpu0, t0) = (proc::cpu_seconds(), Instant::now());
    run::paced_phase(&mut live, run::secs(opts.seconds * REFERENCE_SHARE), None);
    let cores_reference = (proc::cpu_seconds() - cpu0) / t0.elapsed().as_secs_f64();
    live.verify_queries();
    live.settle();

    // traced paced phase, one `/metrics` scrape per second on the side
    let before = live.stack.counters();
    let out_before = live.ingest.pushers().out_totals();
    let sent_before = live.ingest.pushers().client_published();
    let query_bytes_before = live.query.response_bytes;
    let threads_before = proc::cpu_seconds_by_thread();
    tracer.set_enabled(true);
    let (cpu0, t0) = (proc::cpu_seconds(), Instant::now());
    let scrape_every = inputs.spec.query_rate.round().max(2.0) as u64;
    let (ticks, queries, pusher_cpu_s) =
        run::paced_phase(&mut live, run::secs(opts.seconds * TRACED_SHARE), Some(scrape_every));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = proc::cpu_seconds() - cpu0;
    tracer.set_enabled(false);
    let threads_after = proc::cpu_seconds_by_thread();
    let after = live.stack.counters();
    let out_after = live.ingest.pushers().out_totals();
    let sent = live.ingest.pushers().client_published() - sent_before;
    let right = live.query.verify_each(inputs);
    let spans = tracer.take();
    write_spans(opts, inputs, &spans)?;

    let readings = after.agent_readings - before.agent_readings;
    let messages = out_after.messages - out_before.messages;
    let n_queries = queries.len() as u64;
    let totals = trace::totals_by_name(&spans);
    let busy = |name: &str| totals.get(name).map_or(0, |t| t.busy_ns);
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.calls);

    // ---- replays ----
    let now_ns = live.ingest.last_now(0);
    let slice = sut::record_slice(inputs, SLICE_ROUNDS);
    let n_msgs = slice.msgs.len() as u64;
    let (sample_ns, sample_readings) =
        median_of(|| sut::replay_pusher_sample(inputs, SLICE_ROUNDS), |r| r.0);
    let (out_ns, out_readings) =
        median_of(|| sut::replay_pusher_out(inputs, SLICE_ROUNDS), |r| r.0);
    let codec = median_of(
        || sut::replay_codec(inputs, &slice),
        |c| c.payload_encode_ns + c.payload_decode_ns + c.packet_encode_ns + c.packet_decode_ns,
    );
    let transport_ns =
        median_of(|| sut::replay_transport(&slice), |r| r.as_ref().map_or(u64::MAX, |ns| *ns))?;
    let (resolve_ns, register_ns, topics) = median_of(|| sut::replay_sid(&slice), |r| r.0 + r.1);
    let (handle_ns, insert_ns) = median_of(|| sut::replay_agent(&slice), |r| r.0);
    let series = series_for_compression(inputs, &slice);
    let (enc_ns, dec_ns, raw_bytes, packed_bytes, comp_readings) =
        median_of(|| sut::replay_compress(&series), |r| r.0 + r.1);
    // a set of queries of its own for each layer: a block one replay decoded
    // would be a cache hit for the next
    let queries_from = |first: u64| (first..first + REPLAY_QUERIES).map(|i| inputs.query(i));
    let handled: Vec<sut::HandlerReplay> =
        queries_from(0).map(|q| live.stack.replay_handler(inputs, &q, now_ns)).collect();
    let executed: Vec<sut::ExecuteReplay> = queries_from(REPLAY_QUERIES)
        .filter_map(|q| live.stack.replay_execute(inputs, &q, now_ns))
        .collect();
    let read: Vec<sut::ReadReplay> = queries_from(2 * REPLAY_QUERIES)
        .filter_map(|q| live.stack.replay_read(inputs, &q, now_ns))
        .collect();
    // what a `/cache` lookup costs the handler is part of the mix; below the
    // handler only store-backed queries exist, so take the handler's share of them
    let store_share = executed.len() as f64 / REPLAY_QUERIES as f64;

    let (ops, complaints) = run::final_checks(&mut live);

    // ---- per-layer metrics ----
    let handle_replay = per(handle_ns, slice.readings);
    let resolve_per_reading = per(resolve_ns, slice.readings);
    let decode_per_reading = per(codec.payload_decode_ns, slice.readings);
    let insert_per_reading = per(insert_ns, slice.readings);
    let flush_per_reading = per(after.flush_ns - before.flush_ns, readings);
    let compact_per_reading = per(after.compaction_ns - before.compaction_ns, readings);
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    let execute_per_query =
        per(executed.iter().map(|e| e.execute_ns).sum::<u64>(), executed.len() as u64);
    let points = executed.iter().map(|e| e.points).sum::<u64>();
    let handler_replay =
        per(handled.iter().map(|h| h.handler_ns).sum::<u64>(), handled.len() as u64);
    let render_per_query =
        per(handled.iter().map(|h| h.render_ns).sum::<u64>(), handled.len() as u64);
    let n_read = read.len() as u64;
    let snapshot_per_query = per(read.iter().map(|r| r.snapshot_ns).sum::<u64>(), n_read);
    let stream_per_query = per(read.iter().map(|r| r.stream_ns).sum::<u64>(), n_read);
    let read_readings = read.iter().map(|r| r.readings).sum::<u64>();
    let fold_ns = read.iter().map(|r| r.fold_ns).sum::<u64>();
    let handler_live = per(busy("http.handler"), calls("http.handler"));
    let round_trips: u64 = spans
        .iter()
        .filter(|s| s.name == "http.round_trip" && s.parent == "gen.query")
        .map(Span::duration_ns)
        .sum();
    let scrapes: Vec<f64> = {
        let mut v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "obs.render_prometheus")
            .map(|s| s.duration_ns() as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };

    // What the replays account for, against the CPU the threads used.  The
    // replays are single-threaded, so their wall time is CPU time; a live
    // span's is not: on the one CPU all threads share, it also holds the
    // time of whatever ran in between.
    let agent_ingest_cpu_s = ingest_cpu(&threads_after) - ingest_cpu(&threads_before);
    let ingest_cpu_ns = (pusher_cpu_s + agent_ingest_cpu_s) * 1e9;
    let query_cpu_ns = (cpu_s * 1e9 - ingest_cpu_ns).max(0.0);
    let handle_live = per(busy("collectagent.handle_publish"), readings);
    let ingest_attributed = per(sample_ns, sample_readings)
        + per(transport_ns, slice.readings)
        + handle_replay
        + flush_per_reading
        + compact_per_reading;
    let ingest_unattributed = share_left(ingest_attributed, ingest_cpu_ns / readings.max(1) as f64);
    let query_unattributed = share_left(handler_replay, query_cpu_ns / n_queries.max(1) as f64);
    let query_late = run::lateness(&queries, run::query_period(inputs));
    let cores_traced = cpu_s / wall_s;
    let tick_late = run::lateness(&ticks, run::tick_period(inputs));
    let query_latency = run::latency(&queries, &right);
    let tick_ok: Vec<bool> = ticks.iter().map(|s| s.ok).collect();
    let ingest_latency = run::latency(&ticks, &tick_ok);

    let ns = |name, v| metric(name, v, "ns");
    let count = |name, v: u64| metric(name, v as f64, "count");
    let metrics = vec![
        ns("pusher.sample_ns_per_reading", per(sample_ns, sample_readings)),
        ns("pusher.out_ns_per_reading", per(out_ns, out_readings)),
        count("pusher.messages", messages),
        metric(
            "pusher.payload_bytes_per_reading",
            per(
                out_after.payload_bytes - out_before.payload_bytes,
                out_after.readings - out_before.readings,
            ),
            "B",
        ),
        ns("mqtt.payload_encode_ns_per_reading", per(codec.payload_encode_ns, slice.readings)),
        ns("mqtt.payload_decode_ns_per_reading", decode_per_reading),
        ns("mqtt.packet_encode_ns_per_msg", per(codec.packet_encode_ns, n_msgs)),
        ns("mqtt.packet_decode_ns_per_msg", per(codec.packet_decode_ns, n_msgs)),
        ns(
            "mqtt.client_publish_ns_per_msg",
            per(busy("mqtt.client_publish"), calls("mqtt.client_publish")),
        ),
        ns("mqtt.transport_ns_per_msg", per(transport_ns, n_msgs)),
        metric("mqtt.wire_bytes_per_reading", per(codec.wire_bytes, slice.readings), "B"),
        count("mqtt.broker_publishes", after.broker_publishes - before.broker_publishes),
        count("mqtt.lost_msgs", sent.abs_diff(after.broker_publishes - before.broker_publishes)),
        ns("sid.resolve_ns_per_msg", per(resolve_ns, n_msgs)),
        ns("sid.register_ns_per_topic", per(register_ns, topics)),
        ns("collectagent.handle_publish_ns_per_reading", handle_live),
        ns(
            "collectagent.self_ns_per_reading",
            handle_replay - resolve_per_reading - decode_per_reading - insert_per_reading,
        ),
        metric(
            "collectagent.busy_share",
            (after.agent_busy_ns - before.agent_busy_ns) as f64 / (wall_s * 1e9),
            "share",
        ),
        count("collectagent.dropped_msgs", after.agent_dropped - before.agent_dropped),
        ns("compress.encode_ns_per_reading", per(enc_ns, comp_readings)),
        ns("compress.decode_ns_per_reading", per(dec_ns, comp_readings)),
        metric("compress.ratio", per(raw_bytes, packed_bytes), "ratio"),
        ns("store.insert_ns_per_reading", insert_per_reading),
        ns("store.flush_ns_per_reading", flush_per_reading),
        ns("store.compact_ns_per_reading", compact_per_reading),
        count("store.flushes", after.flushes - before.flushes),
        count("store.compactions", after.compactions - before.compactions),
        count("store.write_stalls", after.stalls - before.stalls),
        metric(
            "store.stall_ns_share",
            (after.stall_ns - before.stall_ns) as f64 / (wall_s * 1e9),
            "share",
        ),
        ns("store.snapshot_ns_per_query", snapshot_per_query),
        metric(
            "store.blocks_decoded_per_query",
            per(after.blocks_decoded - before.blocks_decoded, n_queries),
            "count",
        ),
        metric(
            "store.cache_hit_ratio",
            per(after.cache_hits - before.cache_hits, lookups),
            "ratio",
        ),
        count("store.cache_evictions", after.cache_evictions - before.cache_evictions),
        ns("query.fold_ns_per_reading", per(fold_ns, read_readings)),
        metric(
            "query.readings_scanned_per_point",
            per(read_readings, n_read) / per(points, executed.len() as u64).max(1.0),
            "count",
        ),
        ns("core.execute_ns_per_query", execute_per_query),
        ns("core.self_ns_per_query", execute_per_query - snapshot_per_query - stream_per_query),
        ns("http.handler_ns_per_query", handler_live),
        ns("http.json_render_ns_per_query", render_per_query),
        ns(
            "http.self_ns_per_query",
            handler_replay - execute_per_query * store_share - render_per_query,
        ),
        ns(
            "http.transport_ns_per_query",
            per(round_trips.saturating_sub(busy("http.handler")), n_queries),
        ),
        metric(
            "http.response_bytes_per_query",
            per(live.query.response_bytes - query_bytes_before, n_queries),
            "B",
        ),
        ns(
            "obs.render_prometheus_ns",
            if scrapes.is_empty() { 0.0 } else { stats::percentile(&scrapes, 50.0) },
        ),
        metric("trace.ingest_unattributed_share", ingest_unattributed, "share"),
        metric("trace.query_unattributed_share", query_unattributed, "share"),
        metric("trace.overhead_share", -share_left(cores_traced, cores_reference), "share"),
        metric("trace.pusher_cores_busy", pusher_cpu_s / wall_s, "cores"),
        metric("trace.agent_ingest_cores_busy", agent_ingest_cpu_s / wall_s, "cores"),
        metric("trace.query_path_cores_busy", query_cpu_ns / 1e9 / wall_s, "cores"),
        metric("gen.lateness_p99_us", tick_late.p99_us, "us"),
        metric("gen.late_ticks_share", tick_late.late_share, "share"),
        metric("gen.query_lateness_p99_us", query_late.p99_us, "us"),
        metric("gen.late_queries_share", query_late.late_share, "share"),
        Metric {
            samples: Some(ingest_latency.samples),
            ..metric("ingest_latency_p99_us", ingest_latency.p99_us, "us")
        },
        Metric {
            samples: Some(query_latency.samples),
            ..metric("query_latency_p99_us", query_latency.p99_us, "us")
        },
    ];

    let span_totals = Value::Obj(
        totals
            .iter()
            .map(|(name, t)| {
                (
                    name.to_string(),
                    Value::obj([
                        ("spans", Value::Num(t.spans as f64)),
                        ("calls", Value::Num(t.calls as f64)),
                        ("busy_ns", Value::Num(t.busy_ns as f64)),
                        ("self_ns", Value::Num(t.self_ns as f64)),
                    ]),
                )
            })
            .collect(),
    );
    let extra = vec![
        ("span_totals", span_totals),
        (
            "traced_phase",
            Value::obj([
                ("wall_s", Value::Num(wall_s)),
                ("cpu_cores_busy_traced", Value::Num(cores_traced)),
                ("cpu_cores_busy_reference", Value::Num(cores_reference)),
                ("ingest_threads_cpu_s", Value::Num(ingest_cpu_ns / 1e9)),
                ("query_side_cpu_s", Value::Num(query_cpu_ns / 1e9)),
                ("readings", Value::Num(readings as f64)),
                ("queries", Value::Num(n_queries as f64)),
                ("ingest_attributed_ns_per_reading", Value::Num(ingest_attributed)),
            ]),
        ),
        (
            "replay",
            Value::obj([
                ("slice_msgs", Value::Num(n_msgs as f64)),
                ("slice_readings", Value::Num(slice.readings as f64)),
                ("slice_payload_bytes", Value::Num(slice.payload_bytes as f64)),
                ("queries", Value::Num(REPLAY_QUERIES as f64)),
                ("handle_publish_ns_per_reading", Value::Num(handle_replay)),
                (
                    "iterate_ns_per_reading",
                    Value::Num(
                        per((stream_per_query * n_read as f64) as u64, read_readings)
                            - per(fold_ns, read_readings),
                    ),
                ),
                ("repetitions", Value::Num(REPLAY_REPS as f64)),
            ]),
        ),
    ];
    // a traced run's generator is judged by the untraced run of the same workload
    let detail = run::detail_json(opts, inputs, true, &ops, &complaints, &metrics, extra);
    run::leave_running(live);
    Ok(Outcome {
        correct: ops.failed() == 0,
        valid: true,
        attempted: ops.attempted(),
        failed: ops.failed(),
        metrics,
        detail,
    })
}

fn write_spans(opts: &Options, inputs: &Inputs, spans: &[Span]) -> io::Result<()> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let doc = Value::obj([
        ("workload", Value::str(inputs.spec.name)),
        ("seed", Value::Num(opts.seed as f64)),
        (
            "columns",
            Value::Arr(
                ["name", "id", "parent", "thread", "start_ns", "end_ns", "busy_ns", "count"]
                    .iter()
                    .map(|c| Value::str(*c))
                    .collect(),
            ),
        ),
        ("spans", trace::spans_to_json(spans)),
    ]);
    std::fs::write(opts.out_dir.join(format!("{}.trace.json", inputs.spec.name)), doc.compact())
}
