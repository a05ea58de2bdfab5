//! The database-independent access API.
//!
//! [`SensorDb`] bundles the storage cluster, the topic registry and sensor
//! metadata (units, scaling factors — maintained via `dcdbconfig` in the
//! paper, §5.2) behind one handle, with the one query engine (all cores,
//! built with the handle) its windowed requests run on.  Virtual sensors
//! registered on the handle are queried exactly like physical ones
//! (paper §3.2).
//!
//! All querying funnels through **one execution path**:
//! [`SensorDb::execute`] takes a typed [`QueryRequest`] (exact topic,
//! prefix fan-in, windowed or interpolated aggregation, group-by with
//! parallel per-group evaluation) and returns a [`QueryResponse`].
//! [`SensorDb::query`] is the one convenience on top: the raw readings of a
//! single topic.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dcdb_obs::{MetricValue, Registry, TraceSpan};
use dcdb_query::{AggFn, QueryEngine, SensorGroup};
use dcdb_sid::{SensorId, TopicRegistry};
use dcdb_store::reading::{Reading, TimeRange};
use dcdb_store::StoreCluster;
use parking_lot::RwLock;

use crate::request::{
    GroupSeries, QueryError, QueryRequest, QueryResponse, SeriesOrder, TargetMode, UnitMode,
};
use crate::units::Unit;
use crate::vsensor::{VirtualSensor, VsError};

/// Metadata attached to a sensor (`dcdbconfig sensor` properties).
#[derive(Debug, Clone, Default)]
pub struct SensorMeta {
    /// Unit of the stored values.
    pub unit: Unit,
    /// Multiplied into values on query.
    pub scale: f64,
    /// Free-text description.
    pub description: String,
}

impl SensorMeta {
    /// Metadata with a unit and neutral scaling.
    pub fn with_unit(unit: Unit) -> SensorMeta {
        SensorMeta { unit, scale: 1.0, description: String::new() }
    }
}

/// A queried time series plus its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// The sensor topic.
    pub topic: String,
    /// Readings in time order.
    pub readings: Vec<Reading>,
    /// Unit of `readings` values.
    pub unit: Unit,
}

/// The libDCDB handle.
pub struct SensorDb {
    store: Arc<StoreCluster>,
    registry: Arc<TopicRegistry>,
    meta: RwLock<HashMap<String, SensorMeta>>,
    virtuals: RwLock<HashMap<String, Arc<VirtualSensor>>>,
    /// The windowed-query engine, built once on all cores.
    engine: QueryEngine,
    /// Query-path instruments, resolved once from the cluster's registry so
    /// `execute` never takes the registry lock.
    instruments: QueryInstruments,
    /// The alert engine serving `/alerts` and the `ALERTS` exposition, when
    /// one is installed.
    alerts: RwLock<Option<Arc<crate::alerts::AlertEngine>>>,
}

/// Leaf instruments for the query path.  Like `NodeInstruments` these are
/// plain `Arc`s on the underlying atomics — holding them does not hold the
/// registry, so no reference cycle forms through callback instruments.
struct QueryInstruments {
    enabled: Arc<AtomicBool>,
    requests: Arc<dcdb_obs::Counter>,
    plan_ns: Arc<dcdb_obs::Histogram>,
    fold_ns: Arc<dcdb_obs::Histogram>,
    finalize_ns: Arc<dcdb_obs::Histogram>,
    /// The cluster's slow-query ring: when armed, any request over the
    /// threshold leaves its full span tree here.
    slow: Arc<dcdb_obs::SlowQueryLog>,
}

impl QueryInstruments {
    fn from_registry(reg: &Registry) -> QueryInstruments {
        QueryInstruments {
            enabled: reg.enabled_flag(),
            requests: reg.counter("dcdb_query_requests_total"),
            plan_ns: reg.histogram("dcdb_query_stage_ns{stage=\"plan\"}"),
            fold_ns: reg.histogram("dcdb_query_stage_ns{stage=\"fold\"}"),
            finalize_ns: reg.histogram("dcdb_query_stage_ns{stage=\"finalize\"}"),
            slow: reg.slow_queries(),
        }
    }

    fn timing_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }
}

/// Cluster counter values captured before a traced query; the deltas ride
/// on the root span (`blocks_decoded=…`, `cache_hits=…`).
struct CounterBase {
    blocks_decoded: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl CounterBase {
    fn capture(store: &StoreCluster) -> CounterBase {
        let cache = store.cache_stats();
        CounterBase {
            blocks_decoded: store.blocks_decoded(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
        }
    }

    fn attach_deltas(&self, span: &mut TraceSpan, store: &StoreCluster) {
        let after = CounterBase::capture(store);
        span.put("blocks_decoded", after.blocks_decoded - self.blocks_decoded);
        span.put("cache_hits", after.cache_hits - self.cache_hits);
        span.put("cache_misses", after.cache_misses - self.cache_misses);
    }
}

impl SensorDb {
    /// Wrap an existing cluster + registry (e.g. the Collect Agent's).
    pub fn new(store: Arc<StoreCluster>, registry: Arc<TopicRegistry>) -> Arc<SensorDb> {
        let instruments = QueryInstruments::from_registry(store.metrics());
        Arc::new(SensorDb {
            engine: QueryEngine::new(Arc::clone(&store), 0),
            store,
            registry,
            meta: RwLock::new(HashMap::new()),
            virtuals: RwLock::new(HashMap::new()),
            instruments,
            alerts: RwLock::new(None),
        })
    }

    /// A fresh single-node database (tests, examples).
    pub fn in_memory() -> Arc<SensorDb> {
        SensorDb::new(Arc::new(StoreCluster::single()), Arc::new(TopicRegistry::new()))
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<StoreCluster> {
        &self.store
    }

    /// The topic registry.
    pub fn registry(&self) -> &Arc<TopicRegistry> {
        &self.registry
    }

    /// The cluster's metrics registry (scraped by `/metrics`).
    pub fn metrics(&self) -> &Arc<Registry> {
        self.store.metrics()
    }

    /// Install an alert engine on this handle: the engine gets the
    /// cluster's event journal, joins its counters to the metrics registry,
    /// and becomes visible to the REST surfaces (`/alerts`, the `ALERTS`
    /// exposition block).  A Collect Agent feeds it every stored batch
    /// ([`SensorDb::observe_alerts`]); staleness and query-based rules
    /// also need the agent's alert ticker.
    pub fn set_alert_engine(&self, engine: Arc<crate::alerts::AlertEngine>) {
        engine.set_journal(self.store.metrics().events());
        engine.register_metrics(self.store.metrics());
        *self.alerts.write() = Some(engine);
    }

    /// The installed alert engine, if any.
    pub fn alert_engine(&self) -> Option<Arc<crate::alerts::AlertEngine>> {
        self.alerts.read().clone()
    }

    /// Feed stored `(topic, readings)` batches, in order, to the installed
    /// alert engine, if any: the ingest path's hook, one read lock and no
    /// `Arc` clone per call.
    pub fn observe_alerts<'a>(&self, batches: impl IntoIterator<Item = (&'a str, &'a [Reading])>) {
        if let Some(engine) = self.alerts.read().as_ref() {
            for (topic, readings) in batches {
                engine.observe_batch(topic, readings);
            }
        }
    }

    /// The cluster's event journal (`GET /events`).
    pub fn events(&self) -> Arc<dcdb_obs::EventJournal> {
        self.store.metrics().events()
    }

    /// The cluster's slow-query log (`GET /debug/slow_queries`).  Arm it
    /// with [`dcdb_obs::SlowQueryLog::set_threshold_ns`]; queries slower
    /// than the threshold leave their full trace-span tree in the ring.
    pub fn slow_queries(&self) -> Arc<dcdb_obs::SlowQueryLog> {
        self.instruments.slow.clone()
    }

    /// Fold the current metrics scrape into synthetic readings under the
    /// reserved `/_dcdb/<node>/<metric>` hierarchy, all stamped `ts` —
    /// the database monitoring itself with its own sensor machinery, so
    /// operators query health history exactly like any other sensor.
    ///
    /// Scalars publish one reading; histograms expand to `_p50`, `_p99`,
    /// `_max` and `_count` sub-sensors.  Baked-in label sets flatten into
    /// the topic (`dcdb_query_stage_ns{stage="plan"}` →
    /// `dcdb_query_stage_ns.stage.plan`).  Returns the number of readings
    /// written.
    pub fn publish_self_metrics(&self, node: &str, ts: i64) -> usize {
        let snap = self.store.metrics().snapshot();
        let mut written = 0;
        let mut put = |metric: &str, value: u64| {
            let topic = format!("/{}/{node}/{metric}", dcdb_sid::RESERVED_PREFIX);
            // resolve_internal: the public resolve rejects the reserved
            // hierarchy precisely so only this path can publish under it
            if let Ok(sid) = self.registry.resolve_internal(&topic) {
                self.store.insert(sid, ts, value as f64);
                written += 1;
            }
        };
        for (name, value) in &snap.samples {
            let metric = sanitize_metric_topic(name);
            match value {
                MetricValue::Counter(v) | MetricValue::Gauge(v) => put(&metric, *v),
                MetricValue::Histogram(h) => {
                    put(&format!("{metric}_count"), h.count);
                    if h.count > 0 {
                        put(&format!("{metric}_p50"), h.quantile(0.5));
                        put(&format!("{metric}_p99"), h.quantile(0.99));
                        put(&format!("{metric}_max"), h.max);
                    }
                }
            }
        }
        written
    }

    /// Insert one reading under `topic`.
    ///
    /// # Errors
    /// Fails on invalid topics.
    pub fn insert(&self, topic: &str, ts: i64, value: f64) -> Result<(), dcdb_sid::SidError> {
        let sid = self.registry.resolve(topic)?;
        self.store.insert(sid, ts, value);
        Ok(())
    }

    /// Set sensor metadata (`dcdbconfig sensor set`).
    pub fn set_meta(&self, topic: &str, meta: SensorMeta) {
        self.meta.write().insert(dcdb_sid::topic::normalize(topic), meta);
    }

    /// Get sensor metadata.
    pub fn meta(&self, topic: &str) -> SensorMeta {
        self.meta.read().get(&dcdb_sid::topic::normalize(topic)).cloned().unwrap_or(SensorMeta {
            unit: Unit::NONE,
            scale: 1.0,
            description: String::new(),
        })
    }

    /// Register a virtual sensor under its own topic.
    ///
    /// # Errors
    /// Propagates expression compilation failures.
    pub fn define_virtual(
        self: &Arc<Self>,
        topic: &str,
        expression: &str,
        unit: Unit,
    ) -> Result<(), VsError> {
        let vs = VirtualSensor::compile(topic, expression, unit)?;
        self.virtuals.write().insert(dcdb_sid::topic::normalize(topic), Arc::new(vs));
        Ok(())
    }

    /// Raw readings of one sensor (physical or virtual) in `[start, end)` —
    /// [`SensorDb::execute`] with an exact-topic request, unwrapped to its
    /// single series.
    ///
    /// Physical sensors apply their metadata scale; virtual sensors are
    /// evaluated lazily over the queried period only (paper §3.2).
    ///
    /// # Errors
    /// Virtual-sensor evaluation errors propagate; unknown physical topics
    /// yield an empty series.
    pub fn query(self: &Arc<Self>, topic: &str, range: TimeRange) -> Result<Series, VsError> {
        match self.execute(&QueryRequest::topic(topic).range(range)) {
            Ok(resp) => Ok(resp.into_single()),
            Err(QueryError::Virtual(e)) => Err(e),
            // a raw exact-topic request always validates and folds no units
            Err(other) => Err(VsError::Parse { pos: 0, message: other.to_string() }),
        }
    }

    /// Latest reading of a physical sensor: the store's newest-wins
    /// reading (newest timestamp; deleted and expired readings excluded),
    /// unscaled.
    pub fn latest(&self, topic: &str) -> Option<Reading> {
        let sid = self.registry.get(topic)?;
        self.store.latest(sid)
    }

    /// Execute a typed [`QueryRequest`] — **the** query path every surface
    /// (Grafana, REST, CLI, query-based alert rules) goes through.
    ///
    /// * Without an aggregation the response holds raw series, one per
    ///   resolved sensor (metadata scales applied).
    /// * With an aggregation and a window, the request runs on the
    ///   `dcdb-query` pushdown engine; compressed blocks outside the range
    ///   are never decoded.
    /// * With `group_by`, the resolved sensors partition by their topic's
    ///   leading hierarchy components and the groups evaluate
    ///   **concurrently** on the engine's scoped thread pool — one response
    ///   series per group, tagged with its group key, bit-identical to
    ///   evaluating the groups serially.
    /// * With an aggregation but no window, sensors interpolate onto the
    ///   union of their timestamps and the aggregation folds the samples at
    ///   each grid point.
    ///
    /// # Errors
    /// [`QueryError::InvalidRequest`] for contradictory requests,
    /// [`QueryError::MixedUnits`] when a strict-mode group mixes concrete
    /// units, [`QueryError::Virtual`] for virtual-sensor failures.
    pub fn execute(self: &Arc<Self>, req: &QueryRequest) -> Result<QueryResponse, QueryError> {
        req.validate()?;
        self.instruments.requests.inc();
        let timed = self.instruments.timing_enabled();
        // an armed slow-query log captures the same span tree a traced
        // request would, so any offender can land in the ring complete
        let slow_threshold = self.instruments.slow.threshold_ns();
        let capture = req.trace || slow_threshold > 0;
        let t_total = (timed || capture).then(Instant::now);
        let counters = capture.then(|| CounterBase::capture(&self.store));
        let norm = dcdb_sid::topic::normalize(&req.target);

        // virtual sensors live outside the physical hierarchy; only exact
        // and auto targeting consult them.  Bound before the `match`: a
        // read guard in the scrutinee would live through the arm, and
        // `execute_virtual` re-enters `execute` (virtuals referencing
        // virtuals) — a recursive read that deadlocks once a writer queues
        let vs = (req.mode != TargetMode::Subtree)
            .then(|| self.virtuals.read().get(&norm).cloned())
            .flatten();
        let (mut response, root) = match vs {
            Some(vs) => {
                let mut response = self.execute_virtual(&vs, &norm, req)?;
                finalize(&mut response, req);
                let root = capture.then(|| {
                    let mut root = TraceSpan::new("execute");
                    let mut virt = TraceSpan::new("virtual");
                    virt.wall_ns = ns_since(t_total);
                    root.push_child(virt);
                    root
                });
                (response, root)
            }
            None => self.execute_physical(&norm, req, timed, capture)?,
        };
        if let Some(mut root) = root {
            root.wall_ns = ns_since(t_total);
            if let Some(base) = &counters {
                base.attach_deltas(&mut root, &self.store);
            }
            if slow_threshold > 0 && root.wall_ns >= slow_threshold {
                self.instruments.slow.record(root.wall_ns, summarize_request(req), root.clone());
            }
            if req.trace {
                response.trace = Some(root);
            }
        }
        Ok(response)
    }

    /// Plan, fold and finalize a request over physical sensors; with
    /// `capture`, also the root span of its stages (wall time and counter
    /// deltas are left to [`SensorDb::execute`]).
    fn execute_physical(
        self: &Arc<Self>,
        norm: &str,
        req: &QueryRequest,
        timed: bool,
        capture: bool,
    ) -> Result<(QueryResponse, Option<TraceSpan>), QueryError> {
        // plan: resolve the target(s) against the topic registry
        let t_plan = (timed || capture).then(Instant::now);
        let targets: Vec<(String, SensorId)> = match req.mode {
            TargetMode::Exact => match self.registry.get(norm) {
                Some(sid) => vec![(norm.to_string(), sid)],
                None => Vec::new(),
            },
            TargetMode::Auto => match self.registry.get(norm) {
                Some(sid) => vec![(norm.to_string(), sid)],
                None => self.registry.sids_under(norm),
            },
            TargetMode::Subtree => self.registry.sids_under(norm),
        };
        let resolved = targets.len();
        let plan_ns = ns_since(t_plan);

        // fold: fetch + aggregate (the engine fan-in for windowed requests)
        let t_fold = (timed || capture).then(Instant::now);
        let (mut response, engine_span) = match req.agg {
            None => (self.run_raw(norm, targets, req), None),
            Some(agg) => {
                let groups = partition(norm, targets, req.group_by);
                match req.window_ns {
                    Some(window_ns) => self.run_windowed(groups, req, agg, window_ns, capture)?,
                    None => (self.run_interpolated(groups, req, agg)?, None),
                }
            }
        };
        let fold_ns = ns_since(t_fold);

        let t_finalize = (timed || capture).then(Instant::now);
        finalize(&mut response, req);
        let finalize_ns = ns_since(t_finalize);

        if timed {
            self.instruments.plan_ns.observe(plan_ns);
            self.instruments.fold_ns.observe(fold_ns);
            self.instruments.finalize_ns.observe(finalize_ns);
        }
        let root = capture.then(|| {
            let mut root = TraceSpan::new("execute");
            root.put("sensors", resolved as u64);
            root.put("series", response.series.len() as u64);
            let mut plan = TraceSpan::new("plan");
            plan.wall_ns = plan_ns;
            plan.put("sensors", resolved as u64);
            root.push_child(plan);
            // the engine's own span tree (fold with per-chunk children,
            // merge) replaces the flat fold span for windowed requests
            let fold = engine_span.map_or_else(
                || TraceSpan { wall_ns: fold_ns, ..TraceSpan::new("fold") },
                |span| TraceSpan { stage: "engine".into(), ..span },
            );
            root.push_child(fold);
            let mut fin = TraceSpan::new("finalize");
            fin.wall_ns = finalize_ns;
            root.push_child(fin);
            root
        });
        Ok((response, root))
    }

    /// Raw-readings execution: one series per resolved sensor.
    fn run_raw(
        self: &Arc<Self>,
        norm: &str,
        targets: Vec<(String, SensorId)>,
        req: &QueryRequest,
    ) -> QueryResponse {
        let mut series = Vec::new();
        for (topic, sid) in &targets {
            let meta = self.meta(topic);
            let mut readings = self.store.query(*sid, req.range);
            if meta.scale != 1.0 {
                for reading in &mut readings {
                    reading.value *= meta.scale;
                }
            }
            series.push(GroupSeries {
                key: None,
                sensors: 1,
                series: Series { topic: topic.clone(), readings, unit: meta.unit },
            });
        }
        // exact targeting always answers with one series, even for unknown
        // topics
        if req.mode == TargetMode::Exact && series.is_empty() {
            let meta = self.meta(norm);
            series.push(GroupSeries {
                key: None,
                sensors: 0,
                series: Series { topic: norm.to_string(), readings: Vec::new(), unit: meta.unit },
            });
        }
        QueryResponse { series, trace: None }
    }

    /// Windowed execution on the pushdown engine; groups run concurrently.
    /// With `traced` the engine also returns its span tree — bit-identical
    /// results either way.
    fn run_windowed(
        self: &Arc<Self>,
        groups: Vec<ResolvedGroup>,
        req: &QueryRequest,
        agg: AggFn,
        window_ns: i64,
        traced: bool,
    ) -> Result<(QueryResponse, Option<TraceSpan>), QueryError> {
        struct Prepared {
            key: Option<String>,
            base: String,
            unit: Unit,
            post_scale: f64,
            sensors: usize,
        }
        let mut prepared = Vec::with_capacity(groups.len());
        let mut tasks = Vec::with_capacity(groups.len());
        for (key, base, members) in groups {
            let units: Vec<Unit> = members.iter().map(|(t, _)| self.meta(t).unit).collect();
            let unit = group_unit(&units, req.units, &base)?;
            let (post_scale, unit) = rate_adjust(agg, unit);
            let pairs: Vec<(SensorId, f64)> =
                members.iter().map(|(t, sid)| (*sid, self.meta(t).scale)).collect();
            prepared.push(Prepared { key, base, unit, post_scale, sensors: members.len() });
            tasks.push(SensorGroup { key: prepared.len() - 1, sids: pairs });
        }
        let (results, engine_span) =
            self.engine.aggregate(tasks, req.range, window_ns, agg, traced);
        let series = results
            .into_iter()
            .map(|(idx, mut readings)| {
                let p = &prepared[idx];
                apply_scale(&mut readings, p.post_scale);
                GroupSeries {
                    key: p.key.clone(),
                    sensors: p.sensors,
                    series: Series { topic: format!("{}/+{agg}", p.base), readings, unit: p.unit },
                }
            })
            .collect();
        Ok((QueryResponse { series, trace: None }, engine_span))
    }

    /// Union-grid execution: interpolate members onto shared timestamps and
    /// fold the aggregation per grid point.
    fn run_interpolated(
        self: &Arc<Self>,
        groups: Vec<ResolvedGroup>,
        req: &QueryRequest,
        agg: AggFn,
    ) -> Result<QueryResponse, QueryError> {
        let mut series = Vec::with_capacity(groups.len());
        for (key, base, members) in groups {
            let mut units = Vec::with_capacity(members.len());
            let mut materialised = Vec::with_capacity(members.len());
            for (topic, sid) in &members {
                let meta = self.meta(topic);
                units.push(meta.unit);
                let mut readings = self.store.query(*sid, req.range);
                if meta.scale != 1.0 {
                    for reading in &mut readings {
                        reading.value *= meta.scale;
                    }
                }
                materialised.push(readings);
            }
            // same unit mapping as the windowed path (count → unitless);
            // rate is rejected by validate(), so the scale is always 1.0
            let (post_scale, unit) = rate_adjust(agg, group_unit(&units, req.units, &base)?);
            let slices: Vec<&[Reading]> = materialised.iter().map(Vec::as_slice).collect();
            let mut readings = interpolated_fold(&slices, agg);
            apply_scale(&mut readings, post_scale);
            series.push(GroupSeries {
                key,
                sensors: members.len(),
                series: Series { topic: format!("{}/+{agg}", base), readings, unit },
            });
        }
        Ok(QueryResponse { series, trace: None })
    }

    /// Virtual-sensor execution: evaluate over the range, then post-process
    /// like any single-member group.
    fn execute_virtual(
        self: &Arc<Self>,
        vs: &Arc<VirtualSensor>,
        norm: &str,
        req: &QueryRequest,
    ) -> Result<QueryResponse, QueryError> {
        if req.group_by.is_some() {
            return Err(QueryError::InvalidRequest(
                "group_by does not apply to a virtual sensor (no hierarchy below it)".into(),
            ));
        }
        let series = vs.evaluate(self, req.range)?;
        let out = match req.agg {
            None => GroupSeries { key: None, sensors: 1, series },
            Some(agg) => {
                let (post_scale, unit) = rate_adjust(agg, series.unit);
                let mut readings = match req.window_ns {
                    Some(window_ns) => {
                        dcdb_query::window_aggregate(series.readings.into_iter(), window_ns, agg)
                    }
                    None => interpolated_fold(&[series.readings.as_slice()], agg),
                };
                apply_scale(&mut readings, post_scale);
                GroupSeries {
                    key: None,
                    sensors: 1,
                    series: Series { topic: format!("{norm}/+{agg}"), readings, unit },
                }
            }
        };
        Ok(QueryResponse { series: vec![out], trace: None })
    }
}

/// Nanoseconds since `t`, or 0 when nothing was timed.
fn ns_since(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

/// One-line request description for the slow-query log (`target`, mode,
/// aggregation, window, grouping, range).
fn summarize_request(req: &QueryRequest) -> String {
    use std::fmt::Write as _;
    let mode = match req.mode {
        TargetMode::Exact => "topic",
        TargetMode::Auto => "auto",
        TargetMode::Subtree => "subtree",
    };
    let mut s = format!("{mode}={}", req.target);
    if let Some(agg) = req.agg {
        let _ = write!(s, " agg={agg}");
        if let Some(w) = req.window_ns {
            let _ = write!(s, " window_ns={w}");
        }
    }
    if let Some(level) = req.group_by {
        let _ = write!(s, " group_by={level}");
    }
    let _ = write!(s, " range=[{}, {})", req.range.start, req.range.end);
    s
}

/// Flatten a metric name (possibly with a baked-in label set) into one
/// valid topic component: `dcdb_query_stage_ns{stage="plan"}` →
/// `dcdb_query_stage_ns.stage.plan`.
fn sanitize_metric_topic(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '{' | '=' | ',' => {
                if !out.ends_with('.') {
                    out.push('.');
                }
            }
            '}' | '"' => {}
            c if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | ':' | '-') => out.push(c),
            _ => out.push('_'),
        }
    }
    while out.ends_with('.') {
        out.pop();
    }
    out
}

/// A resolved execution group: `(group key, base topic for naming, member
/// sensors)`.
type ResolvedGroup = (Option<String>, String, Vec<(String, SensorId)>);

/// Partition resolved `(topic, sid)` targets into [`ResolvedGroup`]s: one
/// group per distinct leading-components prefix when grouping, a single
/// anonymous group otherwise.
fn partition(
    norm: &str,
    targets: Vec<(String, SensorId)>,
    group_by: Option<usize>,
) -> Vec<ResolvedGroup> {
    match group_by {
        None => {
            // a single resolved sensor is named by its own topic, a fan-in
            // by the queried prefix
            let base = if targets.len() == 1 { targets[0].0.clone() } else { norm.to_string() };
            vec![(None, base, targets)]
        }
        Some(level) => {
            let mut groups: BTreeMap<String, Vec<(String, SensorId)>> = BTreeMap::new();
            for (topic, sid) in targets {
                let levels = dcdb_sid::topic::split_levels(&topic);
                let depth = level.min(levels.len());
                let key = dcdb_sid::topic::join_levels(&levels[..depth]);
                groups.entry(key).or_default().push((topic, sid));
            }
            groups.into_iter().map(|(key, members)| (Some(key.clone()), key, members)).collect()
        }
    }
}

/// The unit of a fan-in group.  Strict mode treats `Unit::NONE` (no
/// metadata) as compatible with anything but rejects two distinct concrete
/// units; lenient mode reproduces the old first-unit-wins behaviour.
fn group_unit(units: &[Unit], mode: UnitMode, group: &str) -> Result<Unit, QueryError> {
    match mode {
        UnitMode::Lenient => Ok(units.first().copied().unwrap_or_default()),
        UnitMode::Strict => {
            let mut found: Option<Unit> = None;
            for &unit in units {
                if unit == Unit::NONE {
                    continue;
                }
                match found {
                    None => found = Some(unit),
                    Some(f) if f == unit => {}
                    Some(f) => {
                        let mut names = vec![f.name];
                        for &u in units {
                            if u != Unit::NONE && !names.contains(&u.name) {
                                names.push(u.name);
                            }
                        }
                        return Err(QueryError::MixedUnits {
                            group: group.to_string(),
                            units: names,
                        });
                    }
                }
            }
            Ok(found.unwrap_or(Unit::NONE))
        }
    }
}

/// Fold `agg` over the interpolated samples of every series at each point
/// of their union timestamp grid.
fn interpolated_fold(slices: &[&[Reading]], agg: AggFn) -> Vec<Reading> {
    let grid = crate::interp::timestamp_union(slices);
    let mut samples = Vec::with_capacity(slices.len());
    grid.into_iter()
        .map(|ts| {
            samples.clear();
            samples.extend(slices.iter().filter_map(|s| crate::interp::sample_at(s, ts)));
            let value = match agg {
                // the sum folds in slice order (registry order of the
                // sensors), so results are reproducible bit for bit
                AggFn::Sum => samples.iter().sum(),
                AggFn::Avg => samples.iter().sum::<f64>() / samples.len().max(1) as f64,
                AggFn::Min => samples.iter().copied().fold(f64::INFINITY, f64::min),
                AggFn::Max => samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                AggFn::Count => samples.len() as f64,
                AggFn::Stddev => {
                    let mut m = dcdb_query::Moments::new();
                    for &v in &samples {
                        m.push(v);
                    }
                    m.stddev()
                }
                AggFn::Quantile(q) => {
                    let mut v = samples.clone();
                    v.sort_by(f64::total_cmp);
                    let idx = (q * (v.len().max(1) - 1) as f64).round() as usize;
                    v.get(idx.min(v.len().saturating_sub(1))).copied().unwrap_or(f64::NAN)
                }
                // validate() rejects interpolated rate; NaN (not a panic)
                // if a request ever slips through
                AggFn::Rate => f64::NAN,
            };
            Reading { ts, value }
        })
        .collect()
}

/// Apply the requested response ordering and per-series limit.
fn finalize(response: &mut QueryResponse, req: &QueryRequest) {
    match req.order {
        SeriesOrder::Key => response.series.sort_by(|a, b| {
            let ka = a.key.as_deref().unwrap_or(&a.series.topic);
            let kb = b.key.as_deref().unwrap_or(&b.series.topic);
            ka.cmp(kb)
        }),
        SeriesOrder::MeanDesc => {
            // one mean per series up front: the comparator must not rescan
            // both series' readings on every comparison
            let mut keyed: Vec<(f64, GroupSeries)> = response
                .series
                .drain(..)
                .map(|s| {
                    let r = &s.series.readings;
                    let mean = if r.is_empty() {
                        f64::NEG_INFINITY
                    } else {
                        r.iter().map(|x| x.value).sum::<f64>() / r.len() as f64
                    };
                    (mean, s)
                })
                .collect();
            keyed.sort_by(|a, b| b.0.total_cmp(&a.0));
            response.series.extend(keyed.into_iter().map(|(_, s)| s));
        }
    }
    if let Some(n) = req.limit {
        for s in &mut response.series {
            let len = s.series.readings.len();
            if len > n {
                s.series.readings.drain(..len - n);
            }
        }
    }
}

/// For `rate`, the unit-aware conversion factor and output unit; identity
/// for every other aggregation.
fn rate_adjust(agg: dcdb_query::AggFn, unit: Unit) -> (f64, Unit) {
    match agg {
        dcdb_query::AggFn::Rate => unit.rate_unit(),
        dcdb_query::AggFn::Count => (1.0, Unit::NONE),
        _ => (1.0, unit),
    }
}

fn apply_scale(readings: &mut [Reading], scale: f64) {
    if scale != 1.0 {
        for r in readings {
            r.value *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdb_query::AggFn;

    /// The single series of a windowed aggregation over a topic or prefix.
    fn windowed(
        db: &Arc<SensorDb>,
        target: &str,
        range: TimeRange,
        window_ns: i64,
        agg: AggFn,
    ) -> Series {
        db.execute(&QueryRequest::new(target).range(range).aggregate(agg, window_ns))
            .unwrap()
            .into_single()
    }

    #[test]
    fn insert_query_roundtrip() {
        let db = SensorDb::in_memory();
        db.insert("/a/power", 1_000, 100.0).unwrap();
        db.insert("/a/power", 2_000, 110.0).unwrap();
        let s = db.query("/a/power", TimeRange::all()).unwrap();
        assert_eq!(s.readings.len(), 2);
        assert_eq!(s.unit, Unit::NONE);
        assert_eq!(db.latest("/a/power").unwrap().value, 110.0);
    }

    #[test]
    fn metadata_scale_applies_on_query() {
        let db = SensorDb::in_memory();
        db.insert("/a/energy", 1, 1_000_000.0).unwrap();
        db.set_meta(
            "/a/energy",
            SensorMeta { unit: Unit::JOULE, scale: 1e-6, description: "RAPL".into() },
        );
        let s = db.query("/a/energy", TimeRange::all()).unwrap();
        assert_eq!(s.readings[0].value, 1.0);
        assert_eq!(s.unit, Unit::JOULE);
        assert_eq!(db.meta("/a/energy").description, "RAPL");
    }

    #[test]
    fn unknown_topic_is_empty() {
        let db = SensorDb::in_memory();
        let s = db.query("/no/such", TimeRange::all()).unwrap();
        assert!(s.readings.is_empty());
        assert!(db.latest("/no/such").is_none());
    }

    #[test]
    fn invalid_topic_rejected() {
        let db = SensorDb::in_memory();
        assert!(db.insert("/a//b", 1, 1.0).is_err());
    }

    #[test]
    fn windowed_aggregate_single_topic() {
        let db = SensorDb::in_memory();
        for ts in 0..100i64 {
            db.insert("/r0/n0/power", ts * 1_000_000_000, (ts % 10) as f64).unwrap();
        }
        let s = windowed(
            &db,
            "/r0/n0/power",
            TimeRange::new(0, 100_000_000_000),
            10_000_000_000,
            AggFn::Avg,
        );
        assert_eq!(s.readings.len(), 10);
        assert!(s.readings.iter().all(|r| (r.value - 4.5).abs() < 1e-12));
        assert_eq!(s.topic, "/r0/n0/power/+avg");
    }

    #[test]
    fn windowed_aggregate_prefix_fan_in() {
        let db = SensorDb::in_memory();
        for n in 0..4i64 {
            for ts in 0..60i64 {
                db.insert(&format!("/r0/n{n}/power"), ts * 1_000_000_000, 100.0 + n as f64)
                    .unwrap();
            }
        }
        let s = windowed(&db, "/r0", TimeRange::new(0, 60_000_000_000), 60_000_000_000, AggFn::Avg);
        assert_eq!(s.readings.len(), 1);
        assert!((s.readings[0].value - 101.5).abs() < 1e-12);
        // sum fan-in: 60 readings × (100+101+102+103)
        let s = windowed(&db, "/r0", TimeRange::new(0, 60_000_000_000), 60_000_000_000, AggFn::Sum);
        assert_eq!(s.readings[0].value, 60.0 * 406.0);
    }

    #[test]
    fn aggregate_applies_meta_scale_and_rate_units() {
        let db = SensorDb::in_memory();
        // a raw energy counter in microjoules, scaled to J by metadata
        for ts in 0..11i64 {
            db.insert("/n0/energy", ts * 1_000_000_000, (ts * 100) as f64 * 1e6).unwrap();
        }
        db.set_meta(
            "/n0/energy",
            SensorMeta { unit: Unit::JOULE, scale: 1e-6, description: String::new() },
        );
        let s = windowed(
            &db,
            "/n0/energy",
            TimeRange::new(0, 11_000_000_000),
            20_000_000_000,
            AggFn::Rate,
        );
        // 100 J per second → 100 W, unit-aware
        assert_eq!(s.unit, Unit::WATT);
        assert!((s.readings[0].value - 100.0).abs() < 1e-9, "{:?}", s.readings);
    }

    #[test]
    fn aggregate_of_virtual_sensor() {
        let db = SensorDb::in_memory();
        for ts in 0..10i64 {
            db.insert("/a/x", ts, 1.0).unwrap();
            db.insert("/a/y", ts, 2.0).unwrap();
        }
        db.define_virtual("/v/sum", "\"/a/x\" + \"/a/y\"", Unit::WATT).unwrap();
        let s = windowed(&db, "/v/sum", TimeRange::new(0, 10), 100, AggFn::Max);
        assert_eq!(s.readings.len(), 1);
        assert_eq!(s.readings[0].value, 3.0);
        assert_eq!(s.unit, Unit::WATT);
    }

    #[test]
    fn aggregate_unknown_topic_is_empty() {
        let db = SensorDb::in_memory();
        let s = windowed(&db, "/no/such", TimeRange::all(), 1_000, AggFn::Avg);
        assert!(s.readings.is_empty());
    }

    fn two_rack_db() -> Arc<SensorDb> {
        let db = SensorDb::in_memory();
        for rack in 0..2i64 {
            for node in 0..3i64 {
                for ts in 0..60i64 {
                    db.insert(
                        &format!("/sys/rack{rack}/node{node}/power"),
                        ts * 1_000_000_000,
                        100.0 * (rack + 1) as f64 + node as f64,
                    )
                    .unwrap();
                }
            }
        }
        db
    }

    #[test]
    fn execute_grouped_one_series_per_rack() {
        let db = two_rack_db();
        let req = QueryRequest::new("/sys")
            .range(TimeRange::new(0, 60_000_000_000))
            .aggregate(AggFn::Avg, 60_000_000_000)
            .group_by(2);
        let resp = db.execute(&req).unwrap();
        assert_eq!(resp.series.len(), 2);
        let r0 = &resp.series[0];
        assert_eq!(r0.key.as_deref(), Some("/sys/rack0"));
        assert_eq!(r0.series.topic, "/sys/rack0/+avg");
        assert_eq!(r0.sensors, 3);
        assert!((r0.series.readings[0].value - 101.0).abs() < 1e-9);
        let r1 = &resp.series[1];
        assert_eq!(r1.key.as_deref(), Some("/sys/rack1"));
        assert!((r1.series.readings[0].value - 201.0).abs() < 1e-9);
        // every group is bit-identical to the equivalent ungrouped fan-in
        for (rack, group) in resp.series.iter().enumerate() {
            let solo = windowed(
                &db,
                &format!("/sys/rack{rack}"),
                TimeRange::new(0, 60_000_000_000),
                60_000_000_000,
                AggFn::Avg,
            );
            assert_eq!(group.series.readings, solo.readings);
        }
    }

    #[test]
    fn execute_group_level_deeper_than_topics() {
        let db = two_rack_db();
        // level 3 groups per node: 6 groups
        let req = QueryRequest::new("/sys").aggregate(AggFn::Max, 60_000_000_000).group_by(3);
        let resp = db.execute(&req).unwrap();
        assert_eq!(resp.series.len(), 6);
        assert_eq!(resp.series[0].key.as_deref(), Some("/sys/rack0/node0"));
        assert_eq!(resp.series[0].sensors, 1);
    }

    #[test]
    fn execute_order_and_limit() {
        let db = two_rack_db();
        let req = QueryRequest::new("/sys")
            .aggregate(AggFn::Avg, 10_000_000_000)
            .group_by(2)
            .order(SeriesOrder::MeanDesc)
            .limit(2);
        let resp = db.execute(&req).unwrap();
        // hottest rack first, and only the last 2 of 6 windows survive
        assert_eq!(resp.series[0].key.as_deref(), Some("/sys/rack1"));
        assert_eq!(resp.series[0].series.readings.len(), 2);
        assert_eq!(resp.series[0].series.readings[0].ts, 40_000_000_000);
    }

    #[test]
    fn execute_strict_mixed_units_is_typed_error() {
        let db = two_rack_db();
        db.set_meta("/sys/rack0/node0/power", SensorMeta::with_unit(Unit::WATT));
        db.set_meta("/sys/rack0/node1/power", SensorMeta::with_unit(Unit::JOULE));
        let req = QueryRequest::new("/sys/rack0").aggregate(AggFn::Avg, 60_000_000_000);
        let err = db.execute(&req).unwrap_err();
        let QueryError::MixedUnits { group, units } = err else {
            panic!("expected MixedUnits, got {err}");
        };
        assert_eq!(group, "/sys/rack0");
        assert_eq!(units, vec!["W", "J"]);
        // lenient units: the first sensor's unit wins
        let s = db.execute(&req.lenient_units()).unwrap().into_single();
        assert_eq!(s.unit, Unit::WATT);
    }

    #[test]
    fn execute_strict_units_treat_none_as_unspecified() {
        let db = two_rack_db();
        // only one sensor carries metadata: NONE neighbours are compatible,
        // and the concrete unit labels the fan-in (the old API said NONE)
        db.set_meta("/sys/rack0/node1/power", SensorMeta::with_unit(Unit::WATT));
        let req = QueryRequest::new("/sys/rack0").aggregate(AggFn::Avg, 60_000_000_000);
        let resp = db.execute(&req).unwrap();
        assert_eq!(resp.series[0].series.unit, Unit::WATT);
        // grouped: the clean rack stays NONE, the labelled one is W
        let resp = db
            .execute(&QueryRequest::new("/sys").aggregate(AggFn::Avg, 60_000_000_000).group_by(2))
            .unwrap();
        assert_eq!(resp.series[0].series.unit, Unit::WATT);
        assert_eq!(resp.series[1].series.unit, Unit::NONE);
    }

    #[test]
    fn execute_interpolated_folds_per_grid_point() {
        let db = two_rack_db();
        let sum = db
            .execute(&QueryRequest::subtree("/sys/rack0").aggregate_interpolated(AggFn::Sum))
            .unwrap();
        // one point per timestamp of the union grid, each the sum of the
        // rack's three sensors (100 + 101 + 102)
        let want: Vec<Reading> =
            (0..60i64).map(|ts| Reading::new(ts * 1_000_000_000, 303.0)).collect();
        assert_eq!(sum.series[0].series.readings, want);
        assert_eq!(sum.series[0].series.topic, "/sys/rack0/+sum");
        // and beyond sum: the per-grid-point maximum
        let max = db
            .execute(&QueryRequest::subtree("/sys/rack0").aggregate_interpolated(AggFn::Max))
            .unwrap();
        assert!((max.series[0].series.readings[0].value - 102.0).abs() < 1e-9);
        // count is unitless here exactly like in the windowed path
        db.set_meta("/sys/rack0/node0/power", SensorMeta::with_unit(Unit::WATT));
        let cnt = db
            .execute(&QueryRequest::subtree("/sys/rack0").aggregate_interpolated(AggFn::Count))
            .unwrap();
        assert_eq!(cnt.series[0].series.unit, Unit::NONE);
    }

    #[test]
    fn execute_raw_subtree_series_per_sensor() {
        let db = two_rack_db();
        let resp = db.execute(&QueryRequest::subtree("/sys/rack0").limit(5)).unwrap();
        assert_eq!(resp.series.len(), 3);
        assert!(resp.series.iter().all(|s| s.series.readings.len() == 5));
        // the limit keeps the most recent readings
        assert_eq!(resp.series[0].series.readings[0].ts, 55_000_000_000);
    }

    #[test]
    fn execute_rejects_group_by_on_virtual() {
        let db = two_rack_db();
        db.define_virtual("/v/x", "\"/sys/rack0/node0/power\" * 2", Unit::WATT).unwrap();
        let req = QueryRequest::new("/v/x").aggregate(AggFn::Avg, 1_000_000_000).group_by(2);
        assert!(matches!(db.execute(&req), Err(QueryError::InvalidRequest(_))));
    }

    #[test]
    fn traced_execute_is_bit_identical_and_carries_spans() {
        let db = two_rack_db();
        let req = QueryRequest::new("/sys")
            .range(TimeRange::new(0, 60_000_000_000))
            .aggregate(AggFn::Avg, 10_000_000_000)
            .group_by(2);
        let plain = db.execute(&req).unwrap();
        assert!(plain.trace.is_none());
        let traced = db.execute(&req.clone().traced()).unwrap();
        assert_eq!(traced.series, plain.series);
        let trace = traced.trace.expect("trace requested");
        assert_eq!(trace.stage, "execute");
        assert_eq!(trace.get("sensors"), Some(6));
        assert_eq!(trace.get("series"), Some(2));
        assert!(trace.get("blocks_decoded").is_some());
        let stages: Vec<&str> = trace.children.iter().map(|c| c.stage.as_str()).collect();
        assert_eq!(stages, ["plan", "engine", "finalize"]);
        let engine = &trace.children[1];
        assert!(engine.children.iter().any(|c| c.stage == "merge"));
        let rendered = trace.render();
        assert!(rendered.contains("engine"), "{rendered}");

        // raw and interpolated paths trace with a flat fold span
        let raw = db.execute(&QueryRequest::subtree("/sys/rack0").traced()).unwrap();
        let t = raw.trace.unwrap();
        assert!(t.children.iter().any(|c| c.stage == "fold"));
    }

    #[test]
    fn traced_virtual_query_tags_the_virtual_stage() {
        let db = two_rack_db();
        db.define_virtual("/v/x", "\"/sys/rack0/node0/power\" * 2", Unit::WATT).unwrap();
        let resp = db.execute(&QueryRequest::new("/v/x").traced()).unwrap();
        let trace = resp.trace.unwrap();
        assert_eq!(trace.children.len(), 1);
        assert_eq!(trace.children[0].stage, "virtual");
    }

    #[test]
    fn query_stage_histograms_fill_and_can_be_disabled() {
        let db = two_rack_db();
        let req = QueryRequest::new("/sys").aggregate(AggFn::Avg, 60_000_000_000);
        db.execute(&req).unwrap();
        let snap = db.metrics().snapshot();
        let MetricValue::Counter(requests) = snap.get("dcdb_query_requests_total").unwrap() else {
            panic!("requests metric missing");
        };
        // two_rack_db inserts don't execute queries; exactly ours counted
        assert_eq!(*requests, 1);
        let MetricValue::Histogram(plan) = snap.get("dcdb_query_stage_ns{stage=\"plan\"}").unwrap()
        else {
            panic!("plan histogram missing");
        };
        assert_eq!(plan.count, 1);
        // disabling timing stops latency observations but never the counters
        db.metrics().set_enabled(false);
        db.execute(&req).unwrap();
        let snap = db.metrics().snapshot();
        let MetricValue::Histogram(plan) = snap.get("dcdb_query_stage_ns{stage=\"plan\"}").unwrap()
        else {
            panic!("plan histogram missing");
        };
        assert_eq!(plan.count, 1);
        assert_eq!(snap.get("dcdb_query_requests_total"), Some(&MetricValue::Counter(2)));
    }

    #[test]
    fn user_inserts_under_reserved_hierarchy_are_rejected() {
        let db = SensorDb::in_memory();
        let err = db.insert("/_dcdb/node0/dcdb_inserts_total", 1, 1.0).unwrap_err();
        assert!(matches!(err, dcdb_sid::SidError::Reserved(_)));
        // similar-looking but unreserved topics pass
        db.insert("/_dcdbish/x", 1, 1.0).unwrap();
        db.insert("/sys/_dcdb/x", 1, 1.0).unwrap();
    }

    #[test]
    fn self_metrics_publish_as_queryable_sensors() {
        let db = SensorDb::in_memory();
        for ts in 0..50i64 {
            db.insert("/r0/n0/power", ts * 1_000_000_000, ts as f64).unwrap();
        }
        db.execute(&QueryRequest::new("/r0").aggregate(AggFn::Avg, 10_000_000_000)).unwrap();
        let written = db.publish_self_metrics("node0", 60_000_000_000);
        assert!(written > 0, "scrape should publish readings");

        // the fold is queryable through the standard execution path
        let resp = db.execute(&QueryRequest::subtree("/_dcdb/node0")).unwrap();
        assert!(!resp.series.is_empty());
        let reqs = db
            .execute(&QueryRequest::topic("/_dcdb/node0/dcdb_query_requests_total"))
            .unwrap()
            .into_single();
        assert_eq!(reqs.readings.len(), 1);
        // the avg query above plus the subtree query ran before this scrape
        assert!(reqs.readings[0].value >= 1.0);
        // label sets flattened into topic components
        assert_eq!(
            sanitize_metric_topic("dcdb_query_stage_ns{stage=\"plan\"}"),
            "dcdb_query_stage_ns.stage.plan"
        );
        let plan = db
            .execute(&QueryRequest::topic("/_dcdb/node0/dcdb_query_stage_ns.stage.plan_count"))
            .unwrap()
            .into_single();
        assert_eq!(plan.readings.len(), 1);
        // a second scrape appends history under the same sensors
        db.execute(&QueryRequest::new("/r0").aggregate(AggFn::Avg, 10_000_000_000)).unwrap();
        db.publish_self_metrics("node0", 61_000_000_000);
        let reqs = db
            .execute(&QueryRequest::topic("/_dcdb/node0/dcdb_query_requests_total"))
            .unwrap()
            .into_single();
        assert_eq!(reqs.readings.len(), 2);
        assert!(reqs.readings[1].value > reqs.readings[0].value);
    }

    #[test]
    fn slow_query_log_captures_offenders_with_span_trees() {
        let db = two_rack_db();
        let req = QueryRequest::new("/sys")
            .range(TimeRange::new(0, 60_000_000_000))
            .aggregate(AggFn::Avg, 10_000_000_000)
            .group_by(2);
        // disarmed: nothing is captured, results identical
        let plain = db.execute(&req).unwrap();
        assert!(db.slow_queries().is_empty());
        // a 1ns threshold makes every query an offender
        db.slow_queries().set_threshold_ns(1);
        let slow = db.execute(&req).unwrap();
        assert_eq!(slow.series, plain.series, "capture must not change results");
        assert!(slow.trace.is_none(), "slow capture is not a trace request");
        let entries = db.slow_queries().entries();
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert!(e.summary.contains("auto=/sys"), "{}", e.summary);
        assert!(e.summary.contains("agg=avg"), "{}", e.summary);
        assert!(e.total_ns >= 1);
        // the captured span tree is the full traced-execute shape
        assert_eq!(e.trace.stage, "execute");
        let stages: Vec<&str> = e.trace.children.iter().map(|c| c.stage.as_str()).collect();
        assert_eq!(stages, ["plan", "engine", "finalize"]);
        assert!(e.trace.get("blocks_decoded").is_some());
        // disarming stops capture again
        db.slow_queries().set_threshold_ns(0);
        db.execute(&req).unwrap();
        assert_eq!(db.slow_queries().entries().len(), 1);
        // virtual-sensor queries are captured too — including the nested
        // operand query their evaluation runs (it finishes first)
        db.define_virtual("/v/x", "\"/sys/rack0/node0/power\" * 2", Unit::WATT).unwrap();
        db.slow_queries().set_threshold_ns(1);
        db.execute(&QueryRequest::new("/v/x")).unwrap();
        let entries = db.slow_queries().entries();
        assert_eq!(entries.len(), 3);
        assert!(entries[1].summary.contains("/sys/rack0/node0/power"), "{}", entries[1].summary);
        assert_eq!(entries[2].trace.children[0].stage, "virtual");
    }

    #[test]
    fn hierarchical_listing() {
        let db = SensorDb::in_memory();
        db.insert("/sys/r0/n0/power", 1, 1.0).unwrap();
        db.insert("/sys/r0/n1/power", 1, 1.0).unwrap();
        db.insert("/sys/r1/n0/power", 1, 1.0).unwrap();
        assert_eq!(db.registry().sids_under("/sys/r0").len(), 2);
        assert_eq!(db.registry().sids_under("/sys").len(), 3);
    }
}
