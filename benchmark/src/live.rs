//! One running pipeline plus the two generator threads' state: the ingest
//! side drives the pushers, the query side drives one HTTP connection.

use std::io;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{self, Sample};
use crate::http;
use crate::oracle::{self, LiveBounds};
use crate::sut::{Pushers, Stack};
use crate::trace::Tracer;
use crate::workload::{Inputs, Mix, Query, PRELOAD_CHUNK, PUSHERS, TICK_NS};

/// A query that has not answered after this long has failed; its latency is
/// recorded as this.
pub const QUERY_TIMEOUT: Duration = Duration::from_secs(5);

/// Progress of the live clock, written by the ingest thread and read by the
/// query thread to build live-panel ranges and to bound what they may see.
pub struct Shared {
    pub inputs: Inputs,
    pub tracer: Option<Arc<Tracer>>,
    live_now: AtomicI64,
    complete_before: [AtomicI64; PUSHERS],
    issued_before: [AtomicI64; PUSHERS],
}

pub struct IngestSide {
    pushers: Pushers,
    next_tick: u64,
    /// Last clock value each pusher was driven with.
    last_now: [i64; PUSHERS],
    pub readings_published: u64,
    pub markers: u64,
    pub markers_failed: u64,
}

struct QueryRecord {
    index: u64,
    bounds: LiveBounds,
    status: u16,
    body: Vec<u8>,
}

pub struct QuerySide {
    http: http::Client,
    addr: std::net::SocketAddr,
    next_query: u64,
    /// Responses awaiting verification (done between phases, off the clock).
    log: Vec<Option<QueryRecord>>,
    pub response_bytes: u64,
    pub queries: u64,
    pub queries_failed: u64,
    /// First few oracle complaints, for the report.
    pub complaints: Vec<String>,
    memo: oracle::Memo,
}

pub struct Live {
    pub shared: Shared,
    pub stack: Stack,
    pub ingest: IngestSide,
    pub query: QuerySide,
    pub preloaded: u64,
}

impl Live {
    /// Everything up to the first measured phase: start broker and REST
    /// server, connect both clients, preload the store, push two rounds
    /// through the whole pipeline (which registers every live topic), then
    /// [`Live::settle`].
    pub fn setup(inputs: &Inputs, tracer: Option<Arc<Tracer>>) -> io::Result<Live> {
        let stack = Stack::start(tracer.clone())?;
        let pushers = Pushers::connect(stack.mqtt_addr(), inputs, tracer.clone())?;
        let http = http::Client::connect(stack.http_addr(), QUERY_TIMEOUT)?;
        let mut live = Live {
            shared: Shared {
                inputs: inputs.clone(),
                tracer,
                live_now: AtomicI64::new(0),
                complete_before: Default::default(),
                issued_before: Default::default(),
            },
            ingest: IngestSide {
                pushers,
                next_tick: 0,
                last_now: [-1; PUSHERS],
                readings_published: 0,
                markers: 0,
                markers_failed: 0,
            },
            query: QuerySide {
                http,
                addr: stack.http_addr(),
                next_query: 0,
                log: Vec::new(),
                response_bytes: 0,
                queries: 0,
                queries_failed: 0,
                complaints: Vec::new(),
                memo: oracle::Memo::default(),
            },
            stack,
            preloaded: 0,
        };
        live.preload();
        // two rounds: a burst pusher ships nothing before its second tick
        for _ in 0..2 * PUSHERS {
            live.ingest.tick(&live.shared, &live.stack, true);
        }
        live.settle();
        Ok(live)
    }

    /// The history arrives as it would have over time: hour by hour, every
    /// sensor's hour in one fixed-width publish.
    fn preload(&mut self) {
        let inputs = &self.shared.inputs;
        let len = inputs.history_len();
        let mut buf = Vec::with_capacity(PRELOAD_CHUNK);
        for chunk_start in (0..len).step_by(PRELOAD_CHUNK) {
            for (s, topic) in inputs.history_topics().iter().enumerate() {
                buf.clear();
                buf.extend(
                    (chunk_start..(chunk_start + PRELOAD_CHUNK).min(len))
                        .map(|k| (inputs.history_ts(k), inputs.history_value(s, k))),
                );
                self.stack.ingest(topic, &buf);
                self.preloaded += buf.len() as u64;
            }
        }
    }

    /// Bring the store to the one state every measured phase starts from:
    /// memtables flushed, every run merged into one, the dashboard's hot set
    /// decoded again (the merge drops the blocks the cache held).  How many
    /// runs a phase inherits would otherwise depend on where the background
    /// merges of the phase before happened to stop, and its numbers with it.
    pub fn settle(&mut self) {
        self.stack.compact_all();
        self.prime();
    }

    /// Ask every distinct dashboard query once so the hot set is decoded.
    fn prime(&mut self) {
        if self.shared.inputs.spec.mix != Mix::Dashboard {
            return;
        }
        let mut seen: Vec<Query> = Vec::new();
        let mut i = 0;
        // the mix has three query shapes per hot sensor
        while seen.len() < 3 * self.shared.inputs.hot_set().len() && i < 10_000 {
            let q = self.shared.inputs.query(i);
            if !seen.contains(&q) {
                let _ = self.query.http.get(&self.shared.inputs.url(&q, 0));
                seen.push(q);
            }
            i += 1;
        }
    }

    /// Check the logged responses and forget them.  Returns how many were right.
    pub fn verify_queries(&mut self) -> u64 {
        self.query.verify(&self.shared.inputs)
    }
}

impl Shared {
    fn bounds_at_send(&self, q: &Query) -> LiveBounds {
        let now_ns = self.live_now.load(Ordering::SeqCst);
        let complete_before = match q {
            Query::LivePanel { pusher, .. } => self.complete_before[*pusher].load(Ordering::SeqCst),
            _ => 0,
        };
        LiveBounds { now_ns, complete_before, issued_before: 0 }
    }

    fn issued_before(&self, q: &Query) -> i64 {
        match q {
            Query::LivePanel { pusher, .. } => self.issued_before[*pusher].load(Ordering::SeqCst),
            _ => 0,
        }
    }
}

impl IngestSide {
    /// Drive the next pusher in turn; with `marker`, wait until the agent has
    /// stored the tick.  Returns whether the marker (if any) was acknowledged.
    pub fn tick(&mut self, shared: &Shared, stack: &Stack, marker: bool) -> bool {
        let j = self.next_tick;
        self.next_tick += 1;
        let k = (j % PUSHERS as u64) as usize;
        let now_ns = (j / PUSHERS as u64) as i64 * TICK_NS;
        stack.in_flight.tick.store(j, Ordering::SeqCst);
        shared.issued_before[k].store(now_ns + 1, Ordering::SeqCst);
        shared.live_now.fetch_max(now_ns, Ordering::SeqCst);
        self.readings_published += self.pushers.tick(k, now_ns, j) as u64;
        self.last_now[k] = now_ns;
        if !marker {
            return true;
        }
        self.markers += 1;
        let acked = self.pushers.marker(j);
        if acked {
            // a burst flush ships what was sampled before its own instant
            let complete = if shared.inputs.spec.burst { now_ns } else { now_ns + 1 };
            shared.complete_before[k].store(complete, Ordering::SeqCst);
        } else {
            self.markers_failed += 1;
        }
        acked
    }

    pub fn last_now(&self, k: usize) -> i64 {
        self.last_now[k]
    }

    pub fn pushers(&self) -> &Pushers {
        &self.pushers
    }

    /// Paced phase: one tick per period, each followed by its marker.
    pub fn paced(&mut self, shared: &Shared, stack: &Stack, duration: Duration) -> Vec<Sample> {
        let period = crate::run::tick_period(&shared.inputs);
        let first_tick = self.next_tick;
        let t0 = Instant::now();
        let samples = gen::open_loop(t0, period, gen::Arrivals::Periodic, duration, |_| {
            self.tick(shared, stack, true)
        });
        if let Some(t) = shared.tracer.as_ref().filter(|t| t.enabled()) {
            let base = t.ns_of(t0);
            for (i, s) in samples.iter().enumerate() {
                t.record("gen.tick", first_tick + i as u64, "", base + s.due_ns, base + s.end_ns);
            }
        }
        samples
    }

    /// Saturation: tick flat out, TCP back-pressure closing the loop, then
    /// one marker to wait for the pipe to drain.  Returns the wall time.
    pub fn saturate(&mut self, shared: &Shared, stack: &Stack, duration: Duration) -> Duration {
        let t0 = Instant::now();
        while t0.elapsed() < duration {
            self.tick(shared, stack, false);
        }
        self.drain(shared, stack);
        t0.elapsed()
    }

    /// One marker on the connection; once acknowledged, every pusher's
    /// readings sent so far are stored.
    pub fn drain(&mut self, shared: &Shared, stack: &Stack) -> bool {
        self.markers += 1;
        stack.in_flight.tick.store(self.next_tick, Ordering::SeqCst);
        let acked = self.pushers.marker(self.next_tick);
        if acked {
            for k in 0..PUSHERS {
                let extra = if shared.inputs.spec.burst { 0 } else { 1 };
                shared.complete_before[k].fetch_max(self.last_now[k] + extra, Ordering::SeqCst);
            }
        } else {
            self.markers_failed += 1;
        }
        acked
    }
}

impl QuerySide {
    /// Send the next query of the sequence and log the response.
    fn one(&mut self, shared: &Shared, stack: &Stack) -> bool {
        let index = self.next_query;
        self.next_query += 1;
        self.queries += 1;
        let q = shared.inputs.query(index);
        let mut bounds = shared.bounds_at_send(&q);
        let url = shared.inputs.url(&q, bounds.now_ns);
        stack.in_flight.query.store(index, Ordering::SeqCst);
        let traced = shared.tracer.as_ref().filter(|t| t.enabled());
        let start_ns = traced.map(|t| t.now_ns());
        let resp = self.http.get(&url);
        if let (Some(t), Some(start)) = (traced, start_ns) {
            t.record("http.round_trip", index, "gen.query", start, t.now_ns());
        }
        bounds.issued_before = shared.issued_before(&q);
        match resp {
            Ok(r) => {
                self.response_bytes += r.body.len() as u64;
                self.log.push(Some(QueryRecord { index, bounds, status: r.status, body: r.body }));
                true
            }
            Err(e) => {
                self.complain(format!("query {index}: {e}"));
                self.log.push(None);
                // the connection may hold half a response: start afresh
                if let Ok(c) = http::Client::connect(self.addr, QUERY_TIMEOUT) {
                    self.http = c;
                }
                false
            }
        }
    }

    /// One `/metrics` scrape on the query connection (traced runs).
    fn scrape(&mut self, shared: &Shared, stack: &Stack, id: u64) -> bool {
        stack.in_flight.query.store(id, Ordering::SeqCst);
        let Some(t) = shared.tracer.as_ref().filter(|t| t.enabled()) else {
            return self.http.get("/metrics").is_ok_and(|r| r.status == 200);
        };
        t.span("http.round_trip", id, "", || {
            self.http.get("/metrics").is_ok_and(|r| r.status == 200)
        })
    }

    fn complain(&mut self, msg: String) {
        if self.complaints.len() < 8 {
            self.complaints.push(msg);
        }
    }

    /// Paced phase: one query per period.  With `scrape_every`, every n-th
    /// slot is a `/metrics` scrape instead; its sample is not returned.
    pub fn paced(
        &mut self,
        shared: &Shared,
        stack: &Stack,
        duration: Duration,
        scrape_every: Option<u64>,
    ) -> Vec<Sample> {
        let period = crate::run::query_period(&shared.inputs);
        let t0 = Instant::now();
        let mut scrapes = Vec::new();
        // a fresh stretch of the arrival process for every phase
        let arrivals = gen::Arrivals::Poisson(shared.inputs.seed ^ self.next_query);
        let mut samples = gen::open_loop(t0, period, arrivals, duration, |i| match scrape_every {
            Some(n) if i % n == n - 1 => {
                scrapes.push(i as usize);
                // ids above any query index keep scrape spans apart
                self.scrape(shared, stack, u64::MAX / 2 + i)
            }
            _ => self.one(shared, stack),
        });
        for i in scrapes.into_iter().rev() {
            samples.remove(i);
        }
        if let Some(t) = shared.tracer.as_ref().filter(|t| t.enabled()) {
            let base = t.ns_of(t0);
            let first = self.next_query - samples.len() as u64;
            for (i, s) in samples.iter().enumerate() {
                t.record("gen.query", first + i as u64, "", base + s.due_ns, base + s.end_ns);
            }
        }
        samples
    }

    /// Saturation: the next query as soon as the last one answered.
    pub fn saturate(&mut self, shared: &Shared, stack: &Stack, duration: Duration) -> Vec<Sample> {
        gen::closed_loop(Instant::now(), duration, |_| self.one(shared, stack))
    }

    /// Check every logged response; a wrong one is a failed query.  Returns
    /// per logged query whether it was right, oldest first.
    pub fn verify_each(&mut self, inputs: &Inputs) -> Vec<bool> {
        let log = std::mem::take(&mut self.log);
        log.into_iter()
            .map(|rec| {
                let verdict = match &rec {
                    None => Err("no response".to_string()),
                    Some(r) => {
                        let q = inputs.query(r.index);
                        oracle::check(inputs, &mut self.memo, &q, &r.bounds, r.status, &r.body)
                            .map_err(|e| {
                                format!(
                                    "query {} ({}): {e}",
                                    r.index,
                                    inputs.url(&q, r.bounds.now_ns)
                                )
                            })
                    }
                };
                match verdict {
                    Ok(()) => true,
                    Err(e) => {
                        self.queries_failed += 1;
                        if rec.is_some() {
                            self.complain(e);
                        }
                        false
                    }
                }
            })
            .collect()
    }

    fn verify(&mut self, inputs: &Inputs) -> u64 {
        self.verify_each(inputs).iter().filter(|ok| **ok).count() as u64
    }
}
