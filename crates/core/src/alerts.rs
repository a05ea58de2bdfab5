//! The alert rule engine: declarative rules over sensor topics, driven by
//! a full `inactive → pending → firing → resolved` state machine.
//!
//! The paper's future-work section (§9) asks for streaming anomaly
//! detection in continuous operation.  This module is the one place live
//! readings are checked: an [`AlertEngine`] holds [`AlertRule`]s —
//! threshold above/below, rate-of-change, z-score anomaly, and
//! absence/staleness detection for sensors that stop reporting — and
//! tracks one [`StateMachine`] per `(rule, topic)` instance:
//!
//! ```text
//!              condition true                for-duration held
//!  inactive ────────────────────▶ pending ────────────────────▶ firing
//!      ▲                            │                             │
//!      │      condition clears      │      condition clears       │
//!      ◀────────────────────────────┘       ┌─────────────────────┘
//!      │                                    ▼
//!      └────────────────────────────── resolved
//!                next evaluation
//! ```
//!
//! * `for`-duration hysteresis: with `for > 0` a rule never jumps straight
//!   to `firing` — it goes `pending` first and fires only once the
//!   condition has held for the duration (flapping sensors never page).
//! * Re-notification throttling: a firing alert re-notifies at most once
//!   per `renotify` interval.
//! * Rules evaluate on the **live ingest stream**
//!   ([`AlertEngine::observe_batch`], fed once per stored publish by the
//!   Collect Agent's ingest path through [`SensorDb::observe_alerts`]) and
//!   **periodically** ([`AlertEngine::tick`]) — the
//!   tick drives staleness checks and query-based rules, which evaluate a
//!   windowed aggregate through [`SensorDb::execute`] (one rule over "avg
//!   rack power over the last minute" instead of every raw reading).
//!
//! Every notification-worthy transition is recorded in the cluster's
//! [`EventJournal`] at the wall-clock time it was taken, like every other
//! journal event; the evaluation timestamp (the reading's, for stream
//! rules) is the instance's `since_ns` and is named in the message.
//! Alert state surfaces as Prometheus `ALERTS{alertname=...,state=...}`
//! samples on `GET /metrics`, as JSON on `GET /alerts`, and in the
//! `alerts` block of the Collect Agent's `/stats`.  Rules load from a simple INI-style config
//! ([`parse_rules`], `dcdbcollectagent --alert-rules <file>`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dcdb_mqtt::topic::{filter_matches, is_valid_filter};
use dcdb_obs::{EventJournal, EventKind, Severity};
use dcdb_query::{AggFn, Moments};
use dcdb_store::reading::{Reading, TimeRange};
use parking_lot::{Mutex, RwLock};

use crate::api::SensorDb;
use crate::request::QueryRequest;

/// The state of one `(rule, topic)` alert instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlertState {
    /// Condition false; nothing happening.
    #[default]
    Inactive,
    /// Condition true but the `for`-duration has not elapsed yet.
    Pending,
    /// Condition held for the `for`-duration: the alert is active.
    Firing,
    /// The condition cleared after firing; decays to inactive on the next
    /// evaluation.
    Resolved,
}

impl AlertState {
    /// Lowercase wire name (`"inactive"` / `"pending"` / `"firing"` /
    /// `"resolved"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
            AlertState::Resolved => "resolved",
        }
    }
}

/// A notification-worthy state-machine transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// `inactive/resolved → pending` (condition became true, `for > 0`).
    Pending,
    /// `pending → firing` (condition held), or `inactive → firing`
    /// directly when `for == 0`.
    Firing,
    /// Still firing and the re-notification interval elapsed.
    Renotify,
    /// `firing → resolved` (condition cleared).
    Resolved,
    /// A silent return to `inactive`: `pending` cleared before firing, or
    /// `resolved` decayed.  Not journalled.
    Reset,
}

/// The per-instance alert state machine.  Deterministic: transitions
/// depend only on the sequence of `(ts, active)` steps, so replaying the
/// same sequence always reproduces the same transitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct StateMachine {
    state: AlertState,
    /// When the current pending phase started.
    pending_since: i64,
    /// Last notification (fire or re-notify) timestamp.
    last_notify: i64,
}

impl StateMachine {
    /// A fresh machine in `inactive`.
    pub fn new() -> StateMachine {
        StateMachine::default()
    }

    /// Current state.
    pub fn state(&self) -> AlertState {
        self.state
    }

    /// Advance by one evaluation: the condition is `active` at `ts`.
    /// Returns the transition taken, if any.  With `for_ns > 0` the
    /// machine never skips `pending`; from `firing`, a step with
    /// `active == false` always yields [`Transition::Resolved`].
    /// Inlined into the per-reading batch loop — the steady states
    /// (inactive+inactive, firing+active) fall through in a few compares.
    #[inline]
    pub fn step(
        &mut self,
        ts: i64,
        active: bool,
        for_ns: i64,
        renotify_ns: i64,
    ) -> Option<Transition> {
        match self.state {
            AlertState::Inactive | AlertState::Resolved => {
                if active {
                    if for_ns > 0 {
                        self.state = AlertState::Pending;
                        self.pending_since = ts;
                        Some(Transition::Pending)
                    } else {
                        self.state = AlertState::Firing;
                        self.last_notify = ts;
                        Some(Transition::Firing)
                    }
                } else if self.state == AlertState::Resolved {
                    self.state = AlertState::Inactive;
                    Some(Transition::Reset)
                } else {
                    None
                }
            }
            AlertState::Pending => {
                if !active {
                    self.state = AlertState::Inactive;
                    Some(Transition::Reset)
                } else if ts.saturating_sub(self.pending_since) >= for_ns {
                    self.state = AlertState::Firing;
                    self.last_notify = ts;
                    Some(Transition::Firing)
                } else {
                    None
                }
            }
            AlertState::Firing => {
                if !active {
                    self.state = AlertState::Resolved;
                    Some(Transition::Resolved)
                } else if renotify_ns > 0 && ts.saturating_sub(self.last_notify) >= renotify_ns {
                    self.last_notify = ts;
                    Some(Transition::Renotify)
                } else {
                    None
                }
            }
        }
    }
}

/// When a rule's condition holds.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertCondition {
    /// Value strictly above the bound.
    Above(f64),
    /// Value strictly below the bound.
    Below(f64),
    /// Per-second rate of change strictly above the bound (computed from
    /// consecutive evaluations).
    RateAbove(f64),
    /// Value more than `sigmas` standard deviations from the running mean
    /// (Welford accumulation via [`Moments`], the same statistics the
    /// query engine uses), once `min_samples` observations accumulated.
    ZScore {
        /// Standard deviations from the running mean.
        sigmas: f64,
        /// Observations required before the detector arms.
        min_samples: u64,
    },
    /// No reading for `timeout_ns` — staleness detection for sensors that
    /// stop reporting.  Evaluated by [`AlertEngine::tick`]; arms after a
    /// sensor's first reading.
    Absent {
        /// Silence duration that activates the condition.
        timeout_ns: i64,
    },
}

impl AlertCondition {
    fn describe(&self) -> String {
        match self {
            AlertCondition::Above(t) => format!("above {t}"),
            AlertCondition::Below(t) => format!("below {t}"),
            AlertCondition::RateAbove(t) => format!("rate above {t}/s"),
            AlertCondition::ZScore { sigmas, .. } => format!("beyond {sigmas}sigma"),
            AlertCondition::Absent { timeout_ns } => {
                format!("absent for {}s", *timeout_ns as f64 / 1e9)
            }
        }
    }
}

/// How a rule's condition gets its values.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum EvalMode {
    /// Evaluate every live reading of every matching topic (the default).
    #[default]
    Stream,
    /// Evaluate periodically against the trailing windowed aggregate of
    /// the rule's target (one [`SensorDb::execute`] per tick): the rule
    /// watches "avg over the last window" instead of raw readings.  The
    /// rule's `filter` must be a plain topic or prefix (no wildcards).
    Query {
        /// Trailing window width, ns.
        window_ns: i64,
        /// Aggregation folded over the window.
        agg: AggFn,
    },
}

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Rule name (`alertname` in the Prometheus exposition).
    pub name: String,
    /// MQTT wildcard filter selecting the topics the rule watches
    /// (stream rules), or the topic/prefix it queries (query rules).
    pub filter: String,
    /// The condition.
    pub condition: AlertCondition,
    /// `for`-duration hysteresis: the condition must hold this long before
    /// the alert fires (0 = fire immediately).
    pub for_ns: i64,
    /// Re-notification throttle while firing (0 = notify once).
    pub renotify_ns: i64,
    /// Stream or query evaluation.
    pub eval: EvalMode,
}

impl AlertRule {
    /// A stream rule firing immediately, never re-notifying.
    pub fn new(
        name: impl Into<String>,
        filter: impl Into<String>,
        condition: AlertCondition,
    ) -> AlertRule {
        AlertRule {
            name: name.into(),
            filter: filter.into(),
            condition,
            for_ns: 0,
            renotify_ns: 0,
            eval: EvalMode::Stream,
        }
    }

    /// Require the condition to hold `for_ns` before firing.
    pub fn for_duration(mut self, for_ns: i64) -> AlertRule {
        self.for_ns = for_ns;
        self
    }

    /// Re-notify at most once per `renotify_ns` while firing.
    pub fn renotify(mut self, renotify_ns: i64) -> AlertRule {
        self.renotify_ns = renotify_ns;
        self
    }

    /// Evaluate against the trailing `agg` over `window_ns` on each tick
    /// instead of per reading.
    pub fn query_eval(mut self, agg: AggFn, window_ns: i64) -> AlertRule {
        self.eval = EvalMode::Query { window_ns, agg };
        self
    }
}

/// Point-in-time status of one alert instance (`GET /alerts`).
#[derive(Debug, Clone, PartialEq)]
pub struct AlertStatus {
    /// Rule name.
    pub rule: String,
    /// The matched sensor topic (or the rule's target for query rules).
    pub topic: String,
    /// Current state.
    pub state: AlertState,
    /// When the current state was entered (evaluation timestamp, ns).
    pub since_ns: i64,
    /// Value at the last evaluation.
    pub value: f64,
    /// Human-readable description of the last transition.
    pub message: String,
    /// Notifications sent (fire + re-notify + resolve).
    pub notifications: u64,
}

/// Per-(rule, topic) evaluation state.
struct Instance {
    sm: StateMachine,
    last_seen: i64,
    last_value: f64,
    /// Previous `(ts, value)` for rate-of-change conditions.
    prev: Option<(i64, f64)>,
    /// Running statistics for z-score conditions.
    moments: Moments,
    notifications: u64,
    since_ns: i64,
    message: String,
}

impl Instance {
    fn new() -> Instance {
        Instance {
            sm: StateMachine::new(),
            last_seen: 0,
            last_value: f64::NAN,
            prev: None,
            moments: Moments::new(),
            notifications: 0,
            since_ns: 0,
            message: String::new(),
        }
    }
}

/// Everything the engine tracks for one topic: which rules match it
/// (cached — the filter walk is the expensive part of the ingest path)
/// and the per-rule instances.  Rules are append-only, so `checked ==
/// rules.len()` proves the match cache is current and a length mismatch
/// means only the new tail needs checking.
#[derive(Default)]
struct TopicState {
    /// How many rules (a prefix of the rule list) `matched` was computed
    /// against.
    checked: usize,
    /// Indices of rules whose filter matches this topic.
    matched: Vec<u32>,
    /// Per-rule instances, indexed by rule index; `None` until the rule
    /// first evaluates this topic.
    slots: Vec<Option<Instance>>,
}

impl TopicState {
    /// Bring the match cache up to date with an append-only rule list.
    fn refresh(&mut self, topic: &str, rules: &[Arc<AlertRule>]) {
        for (idx, rule) in rules.iter().enumerate().skip(self.checked) {
            if filter_matches(&rule.filter, topic) {
                self.matched.push(idx as u32);
            }
        }
        self.checked = rules.len();
    }

    /// The instance slot for rule `idx`, growing the table on demand.
    fn slot(&mut self, idx: usize) -> &mut Option<Instance> {
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, || None);
        }
        &mut self.slots[idx]
    }
}

/// Min/max of a batch in four independent accumulator pairs (breaking the
/// `minsd`/`maxsd` latency chain); any NaN poisons the result to
/// `(-inf, +inf)` so NaN readings always take the exact per-reading scan.
fn batch_envelope(readings: &[Reading]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let mut nan = false;
    let mut chunks = readings.chunks_exact(4);
    for c in &mut chunks {
        for k in 0..4 {
            let v = c[k].value;
            nan |= v.is_nan();
            lo[k] = lo[k].min(v);
            hi[k] = hi[k].max(v);
        }
    }
    for r in chunks.remainder() {
        nan |= r.value.is_nan();
        lo[0] = lo[0].min(r.value);
        hi[0] = hi[0].max(r.value);
    }
    if nan {
        return (f64::NEG_INFINITY, f64::INFINITY);
    }
    (lo.into_iter().fold(f64::INFINITY, f64::min), hi.into_iter().fold(f64::NEG_INFINITY, f64::max))
}

/// The engine: rules + per-instance state machines + notification
/// counters.  One per Collect Agent / SensorDb, shared by the live
/// observer hook, the periodic ticker and the REST surfaces.
pub struct AlertEngine {
    /// Append-only: [`TopicState`] match caches key on the list length.
    rules: RwLock<Vec<Arc<AlertRule>>>,
    /// `topic → per-topic state` — one allocation-free lookup per ingest
    /// batch, with the rule-match list cached inside.
    instances: Mutex<BTreeMap<String, TopicState>>,
    journal: RwLock<Option<Arc<EventJournal>>>,
    notifications: AtomicU64,
    transitions: AtomicU64,
}

impl Default for AlertEngine {
    fn default() -> Self {
        AlertEngine {
            rules: RwLock::new(Vec::new()),
            instances: Mutex::new(BTreeMap::new()),
            journal: RwLock::new(None),
            notifications: AtomicU64::new(0),
            transitions: AtomicU64::new(0),
        }
    }
}

impl std::fmt::Debug for AlertEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let instances: usize =
            self.instances.lock().values().map(|t| t.slots.iter().flatten().count()).sum();
        f.debug_struct("AlertEngine")
            .field("rules", &self.rules.read().len())
            .field("instances", &instances)
            .field("notifications", &self.notifications())
            .finish()
    }
}

impl AlertEngine {
    /// An empty engine.
    pub fn new() -> AlertEngine {
        AlertEngine::default()
    }

    /// An engine pre-loaded with `rules`.
    pub fn with_rules(rules: Vec<AlertRule>) -> AlertEngine {
        let engine = AlertEngine::new();
        for rule in rules {
            engine.add_rule(rule);
        }
        engine
    }

    /// Record alert transitions into `journal` (idempotent;
    /// [`SensorDb::set_alert_engine`] wires the cluster's journal here).  Also journals a config-change event per call.
    pub fn set_journal(&self, journal: Arc<EventJournal>) {
        // read the rule count before taking the journal slot: acquiring
        // `rules` under `journal` inverts the `observe_batch` → `note`
        // order (rules → instances → journal) and closes a lock cycle
        let rule_count = self.rules.read().len();
        let mut slot = self.journal.write();
        if slot.as_ref().is_some_and(|j| Arc::ptr_eq(j, &journal)) {
            return;
        }
        journal.record(
            EventKind::ConfigChange,
            Severity::Info,
            "alerts",
            format!("alert engine attached with {rule_count} rules"),
        );
        *slot = Some(journal);
    }

    /// Add one rule.
    pub fn add_rule(&self, rule: AlertRule) {
        self.rules.write().push(Arc::new(rule));
    }

    /// The loaded rules.
    pub fn rules(&self) -> Vec<Arc<AlertRule>> {
        self.rules.read().clone()
    }

    /// Total state-machine transitions taken (resets included).
    pub fn transitions(&self) -> u64 {
        self.transitions.load(Ordering::Relaxed)
    }

    /// Notifications sent (fire + re-notify + resolve).
    pub fn notifications(&self) -> u64 {
        self.notifications.load(Ordering::Relaxed)
    }

    /// Number of instances currently pending or firing.
    pub fn active_count(&self) -> u64 {
        self.instances
            .lock()
            .values()
            .flat_map(|t| t.slots.iter().flatten())
            .filter(|i| matches!(i.sm.state(), AlertState::Pending | AlertState::Firing))
            .count() as u64
    }

    /// Evaluate one live reading against every matching stream rule.
    /// Query rules only refresh their staleness clock here.
    pub fn observe(&self, topic: &str, ts: i64, value: f64) {
        self.observe_batch(topic, &[Reading::new(ts, value)]);
    }

    /// Evaluate a batch of readings from one topic, in timestamp order,
    /// against every matching rule — the Collect Agent's ingest path calls
    /// this once per stored publish.  The per-batch cost is one lock, one map
    /// lookup (the topic's matched-rule list is cached in its per-topic
    /// state, so filters are not re-walked) and one shared
    /// min/max envelope pass; threshold/absence rules in a steady state
    /// use the envelope to skip the per-reading scan entirely, so the
    /// common case (healthy sensor, no alert) costs two float compares
    /// per reading regardless of how many threshold rules match.  That is
    /// what keeps on-stream alerting inside the ingest overhead budget
    /// (`dcdb-bench --bin alerts`); per-reading statistical detectors
    /// (`zscore`, `rate_above`) do real arithmetic per reading on their
    /// matched topics by design.
    pub fn observe_batch(&self, topic: &str, readings: &[Reading]) {
        let Some(last) = readings.last() else { return };
        let rules = self.rules.read();
        if rules.is_empty() {
            return;
        }
        let mut instances = self.instances.lock();
        if !instances.contains_key(topic) {
            instances.insert(topic.to_string(), TopicState::default());
        }
        let tstate = instances.get_mut(topic).expect("just ensured");
        tstate.refresh(topic, &rules);
        if tstate.matched.is_empty() {
            // negative result is cached too: unmatched topics cost one
            // map lookup per batch, no filter walks
            return;
        }
        let mut envelope: Option<(f64, f64)> = None;
        let TopicState { matched, slots, .. } = &mut *tstate;
        for &idx32 in matched.iter() {
            let idx = idx32 as usize;
            let rule = &rules[idx];
            if slots.len() <= idx {
                slots.resize_with(idx + 1, || None);
            }
            let inst = slots[idx].get_or_insert_with(Instance::new);
            inst.last_seen = last.ts;
            inst.last_value = last.value;
            if !matches!(rule.eval, EvalMode::Stream) {
                continue;
            }
            // one shared min/max pass over the batch, reused by every rule
            let (lo, hi) = *envelope.get_or_insert_with(|| batch_envelope(readings));
            let skip = match (&rule.condition, inst.sm.state()) {
                // nothing crosses the bound upward: every step is a no-op
                (AlertCondition::Above(t), AlertState::Inactive) => hi <= *t,
                // everything stays above while firing: no resolve, and no
                // renotify timer to expire
                (AlertCondition::Above(t), AlertState::Firing) => rule.renotify_ns == 0 && lo > *t,
                (AlertCondition::Below(t), AlertState::Inactive) => lo >= *t,
                (AlertCondition::Below(t), AlertState::Firing) => rule.renotify_ns == 0 && hi < *t,
                // a reading arrived, so absence stays inactive
                (AlertCondition::Absent { .. }, AlertState::Inactive) => true,
                _ => false,
            };
            if skip {
                continue;
            }
            for r in readings {
                let active = evaluate_stream(&rule.condition, inst, r.ts, r.value);
                if let Some(t) = inst.sm.step(r.ts, active, rule.for_ns, rule.renotify_ns) {
                    self.note(inst, rule, topic, r.ts, r.value, t);
                }
            }
        }
    }

    /// One periodic evaluation sweep at `now_ns`: staleness (absence)
    /// checks for stream rules, and one [`SensorDb::execute`] per
    /// query-based rule when `db` is given.
    pub fn tick(&self, now_ns: i64, db: Option<&Arc<SensorDb>>) {
        let rules = self.rules.read().clone();
        for (idx, rule) in rules.iter().enumerate() {
            match rule.eval {
                EvalMode::Query { window_ns, agg } => {
                    let Some(db) = db else { continue };
                    let req = QueryRequest::new(&rule.filter)
                        .range(TimeRange::new(now_ns.saturating_sub(window_ns), now_ns))
                        .aggregate(agg, window_ns)
                        .lenient_units();
                    let Ok(resp) = db.execute(&req) else { continue };
                    let series = resp.into_single();
                    let Some(last) = series.readings.last().copied() else { continue };
                    let mut instances = self.instances.lock();
                    let inst = instances
                        .entry(rule.filter.clone())
                        .or_default()
                        .slot(idx)
                        .get_or_insert_with(Instance::new);
                    inst.last_seen = now_ns;
                    inst.last_value = last.value;
                    let active = evaluate_stream(&rule.condition, inst, now_ns, last.value);
                    if let Some(t) = inst.sm.step(now_ns, active, rule.for_ns, rule.renotify_ns) {
                        self.note(inst, rule, &rule.filter.clone(), now_ns, last.value, t);
                    }
                }
                EvalMode::Stream => {
                    let AlertCondition::Absent { timeout_ns } = rule.condition else {
                        continue;
                    };
                    let mut instances = self.instances.lock();
                    // collect transitions first: note() needs the topic, and
                    // the iteration borrows the map
                    let mut taken: Vec<(String, i64, f64, Transition)> = Vec::new();
                    for (topic, tstate) in instances.iter_mut() {
                        let Some(inst) = tstate.slots.get_mut(idx).and_then(Option::as_mut) else {
                            continue;
                        };
                        let active = now_ns.saturating_sub(inst.last_seen) >= timeout_ns;
                        if let Some(t) = inst.sm.step(now_ns, active, rule.for_ns, rule.renotify_ns)
                        {
                            taken.push((topic.clone(), now_ns, inst.last_value, t));
                        }
                    }
                    for (topic, ts, value, t) in taken {
                        let inst = instances
                            .get_mut(&topic)
                            .and_then(|t| t.slots[idx].as_mut())
                            .expect("instance just visited");
                        self.note(inst, rule, &topic, ts, value, t);
                    }
                }
            }
        }
    }

    /// Record a transition: counters, instance bookkeeping, journal.
    fn note(
        &self,
        inst: &mut Instance,
        rule: &AlertRule,
        topic: &str,
        ts: i64,
        value: f64,
        transition: Transition,
    ) {
        self.transitions.fetch_add(1, Ordering::Relaxed);
        if transition != Transition::Renotify {
            inst.since_ns = ts;
        }
        let verb = match transition {
            Transition::Pending => "pending",
            Transition::Firing => "firing",
            Transition::Renotify => "still firing",
            Transition::Resolved => "resolved",
            Transition::Reset => {
                inst.message.clear();
                return; // silent: nothing fired, nothing to journal
            }
        };
        if matches!(transition, Transition::Firing | Transition::Renotify | Transition::Resolved) {
            inst.notifications += 1;
            self.notifications.fetch_add(1, Ordering::Relaxed);
        }
        inst.message =
            format!("{topic}: {verb} at {ts} ns ({}; value {value})", rule.condition.describe());
        let severity = match transition {
            Transition::Resolved => Severity::Info,
            _ => Severity::Warning,
        };
        if let Some(journal) = self.journal.read().as_ref() {
            journal.record(EventKind::AlertTransition, severity, &rule.name, &inst.message);
        }
    }

    /// Status of every known alert instance, ordered by rule then topic.
    pub fn alerts(&self) -> Vec<AlertStatus> {
        let rules = self.rules.read();
        let instances = self.instances.lock();
        let mut out: Vec<(usize, AlertStatus)> = Vec::new();
        for (topic, tstate) in instances.iter() {
            for (idx, slot) in tstate.slots.iter().enumerate() {
                let Some(inst) = slot.as_ref() else { continue };
                out.push((
                    idx,
                    AlertStatus {
                        rule: rules.get(idx).map(|r| r.name.clone()).unwrap_or_default(),
                        topic: topic.clone(),
                        state: inst.sm.state(),
                        since_ns: inst.since_ns,
                        value: inst.last_value,
                        message: inst.message.clone(),
                        notifications: inst.notifications,
                    },
                ));
            }
        }
        out.sort_by(|a, b| (a.0, &a.1.topic).cmp(&(b.0, &b.1.topic)));
        out.into_iter().map(|(_, s)| s).collect()
    }

    /// The Prometheus `ALERTS` exposition block: one
    /// `ALERTS{alertname=...,state=...,topic=...} 1` sample per pending or
    /// firing instance (the convention Prometheus itself uses for alert
    /// state).  Empty when nothing is active.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for a in self.alerts() {
            if !matches!(a.state, AlertState::Pending | AlertState::Firing) {
                continue;
            }
            if out.is_empty() {
                out.push_str("# TYPE ALERTS gauge\n");
            }
            let _ = writeln!(
                out,
                "ALERTS{{alertname=\"{}\",state=\"{}\",topic=\"{}\"}} 1",
                a.rule,
                a.state.as_str(),
                a.topic
            );
        }
        out
    }

    /// Join the engine's counters to a metrics registry as scrape-time
    /// callbacks (idempotent; callbacks capture only the engine `Arc`, and
    /// the engine never holds the registry, so no cycle forms).
    pub fn register_metrics(self: &Arc<Self>, reg: &dcdb_obs::Registry) {
        let e = Arc::clone(self);
        reg.func("dcdb_alerts_notifications_total", dcdb_obs::Kind::Counter, move || {
            e.notifications()
        });
        let e = Arc::clone(self);
        reg.func("dcdb_alerts_transitions_total", dcdb_obs::Kind::Counter, move || e.transitions());
        let e = Arc::clone(self);
        reg.func("dcdb_alerts_active", dcdb_obs::Kind::Gauge, move || e.active_count());
        let e = Arc::clone(self);
        reg.func("dcdb_alerts_rules", dcdb_obs::Kind::Gauge, move || e.rules.read().len() as u64);
    }
}

/// Evaluate a value condition against one instance's running state.
/// Absence conditions are never active here — a reading just arrived.
/// Inlined into the per-reading batch loop — keep it branch-cheap.
#[inline]
fn evaluate_stream(cond: &AlertCondition, inst: &mut Instance, ts: i64, value: f64) -> bool {
    match cond {
        AlertCondition::Above(t) => value > *t,
        AlertCondition::Below(t) => value < *t,
        AlertCondition::RateAbove(t) => {
            let prev = inst.prev.replace((ts, value));
            match prev {
                Some((pts, pv)) if ts > pts => (value - pv) / ((ts - pts) as f64 / 1e9) > *t,
                _ => false,
            }
        }
        AlertCondition::ZScore { sigmas, min_samples } => {
            let mut active = false;
            if inst.moments.count() >= *min_samples {
                let var = inst.moments.variance();
                if var > 0.0 {
                    // |z| > sigmas without the per-reading sqrt
                    let dev = value - inst.moments.mean();
                    active = dev * dev > sigmas * sigmas * var;
                }
            }
            // anomalous samples are folded in too: the detector adapts
            inst.moments.push(value);
            active
        }
        AlertCondition::Absent { .. } => false,
    }
}

/// Parse a rules config (the `--alert-rules <file>` format): INI-style
/// sections, one per rule.
///
/// ```text
/// # power-band guard (the paper's §1 motivating use case)
/// [high_power]
/// filter = /sys/+/power
/// condition = above 300
/// for = 10s
/// renotify = 1m
///
/// [stale_sensor]
/// filter = /sys/#
/// condition = absent 30s
///
/// [hot_rack]
/// filter = /sys/rack0
/// condition = above 250
/// query = avg 60s
/// ```
///
/// Conditions: `above <v>`, `below <v>`, `rate_above <v>`,
/// `zscore <sigmas> <min_samples>`, `absent <duration>`.  Durations take
/// `ns`/`us`/`ms`/`s`/`m`/`h` suffixes (bare numbers are nanoseconds).
/// `query = <agg> <window>` turns the rule query-based (plain
/// topic/prefix filters only).
///
/// # Errors
/// Returns a message naming the offending line or section.
pub fn parse_rules(text: &str) -> Result<Vec<AlertRule>, String> {
    let mut rules: Vec<AlertRule> = Vec::new();
    let mut current: Option<AlertRule> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with(';') {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            if let Some(done) = current.take() {
                finish_rule(done, &mut rules)?;
            }
            let name = name.trim();
            if name.is_empty() {
                return Err(err("empty rule name".into()));
            }
            current = Some(AlertRule::new(name, "", AlertCondition::Above(f64::INFINITY)));
            continue;
        }
        let Some(rule) = current.as_mut() else {
            return Err(err("key outside a [rule] section".into()));
        };
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(format!("expected key = value, got {line:?}")));
        };
        let (key, value) = (key.trim(), value.trim());
        match key {
            "filter" => rule.filter = value.to_string(),
            "condition" => rule.condition = parse_condition(value).map_err(err)?,
            "for" => rule.for_ns = parse_duration_ns(value).map_err(err)?,
            "renotify" => rule.renotify_ns = parse_duration_ns(value).map_err(err)?,
            "query" => {
                let (agg, window) = value
                    .split_once(char::is_whitespace)
                    .ok_or_else(|| err(format!("query wants `<agg> <window>`, got {value:?}")))?;
                let agg = AggFn::parse(agg.trim())
                    .ok_or_else(|| err(format!("unknown aggregation {agg:?}")))?;
                let window_ns = parse_duration_ns(window.trim()).map_err(err)?;
                if window_ns <= 0 {
                    return Err(format!("line {}: query window must be positive", lineno + 1));
                }
                rule.eval = EvalMode::Query { window_ns, agg };
            }
            other => return Err(err(format!("unknown key {other:?}"))),
        }
    }
    if let Some(done) = current.take() {
        finish_rule(done, &mut rules)?;
    }
    Ok(rules)
}

/// Validate one parsed rule and push it.
fn finish_rule(rule: AlertRule, rules: &mut Vec<AlertRule>) -> Result<(), String> {
    let name = &rule.name;
    if rule.filter.is_empty() {
        return Err(format!("rule {name}: missing filter"));
    }
    if !is_valid_filter(&rule.filter) {
        return Err(format!(
            "rule {name}: malformed filter {:?} (`+` and `#` fill a whole level, `#` only the last)",
            rule.filter
        ));
    }
    if rule.condition == AlertCondition::Above(f64::INFINITY) {
        return Err(format!("rule {name}: missing condition"));
    }
    if matches!(rule.eval, EvalMode::Query { .. }) {
        if rule.filter.contains('+') || rule.filter.contains('#') {
            return Err(format!(
                "rule {name}: query rules take a plain topic/prefix, not a wildcard filter"
            ));
        }
        if matches!(rule.condition, AlertCondition::Absent { .. }) {
            return Err(format!(
                "rule {name}: absence detection is stream-evaluated; drop the query key"
            ));
        }
    }
    rules.push(rule);
    Ok(())
}

fn parse_condition(s: &str) -> Result<AlertCondition, String> {
    let mut parts = s.split_whitespace();
    let kind = parts.next().ok_or_else(|| "empty condition".to_string())?;
    let mut num = |what: &str| -> Result<f64, String> {
        parts
            .next()
            .ok_or_else(|| format!("condition {kind} wants {what}"))?
            .parse::<f64>()
            .map_err(|e| format!("condition {kind}: {e}"))
    };
    let cond = match kind {
        "above" => AlertCondition::Above(num("a bound")?),
        "below" => AlertCondition::Below(num("a bound")?),
        "rate_above" => AlertCondition::RateAbove(num("a per-second bound")?),
        "zscore" => {
            let sigmas = num("sigmas")?;
            let min_samples = num("min samples")? as u64;
            if sigmas <= 0.0 || min_samples < 2 {
                return Err("zscore wants sigmas > 0 and min_samples >= 2".into());
            }
            AlertCondition::ZScore { sigmas, min_samples }
        }
        "absent" => {
            let d = parts.next().ok_or_else(|| "absent wants a duration".to_string())?;
            AlertCondition::Absent { timeout_ns: parse_duration_ns(d)? }
        }
        other => return Err(format!("unknown condition {other:?}")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing tokens after condition {kind:?}"));
    }
    Ok(cond)
}

/// Parse `10s` / `250ms` / `5m` / `1h` / `1500` (bare = ns) into ns — the
/// query layer's duration grammar, with an error message for configs.
pub fn parse_duration_ns(s: &str) -> Result<i64, String> {
    dcdb_query::parse_duration_ns(s).ok_or_else(|| format!("bad duration {s:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: i64 = 1_000_000_000;

    #[test]
    fn state_machine_honours_for_duration() {
        let mut sm = StateMachine::new();
        assert_eq!(sm.step(0, true, 5 * S, 0), Some(Transition::Pending));
        assert_eq!(sm.state(), AlertState::Pending);
        assert_eq!(sm.step(3 * S, true, 5 * S, 0), None, "for-duration not held yet");
        assert_eq!(sm.step(5 * S, true, 5 * S, 0), Some(Transition::Firing));
        assert_eq!(sm.state(), AlertState::Firing);
        assert_eq!(sm.step(6 * S, false, 5 * S, 0), Some(Transition::Resolved));
        assert_eq!(sm.state(), AlertState::Resolved);
        assert_eq!(sm.step(7 * S, false, 5 * S, 0), Some(Transition::Reset));
        assert_eq!(sm.state(), AlertState::Inactive);
    }

    #[test]
    fn state_machine_pending_clears_without_firing() {
        let mut sm = StateMachine::new();
        sm.step(0, true, 5 * S, 0);
        assert_eq!(sm.step(S, false, 5 * S, 0), Some(Transition::Reset));
        assert_eq!(sm.state(), AlertState::Inactive);
    }

    #[test]
    fn state_machine_renotifies_on_interval() {
        let mut sm = StateMachine::new();
        assert_eq!(sm.step(0, true, 0, 10 * S), Some(Transition::Firing));
        assert_eq!(sm.step(5 * S, true, 0, 10 * S), None);
        assert_eq!(sm.step(10 * S, true, 0, 10 * S), Some(Transition::Renotify));
        assert_eq!(sm.step(15 * S, true, 0, 10 * S), None);
        assert_eq!(sm.step(20 * S, true, 0, 10 * S), Some(Transition::Renotify));
    }

    #[test]
    fn engine_fires_and_resolves_on_stream() {
        let engine = AlertEngine::new();
        engine.add_rule(
            AlertRule::new("hot", "/sys/+/power", AlertCondition::Above(100.0)).for_duration(2 * S),
        );
        engine.observe("/sys/n0/power", 0, 150.0); // pending
        engine.observe("/sys/n0/power", S, 150.0); // still pending
        let a = &engine.alerts()[0];
        assert_eq!(a.state, AlertState::Pending);
        engine.observe("/sys/n0/power", 2 * S, 150.0); // fires
        let a = &engine.alerts()[0];
        assert_eq!(a.state, AlertState::Firing);
        assert_eq!(a.rule, "hot");
        assert_eq!(a.topic, "/sys/n0/power");
        assert_eq!(engine.active_count(), 1);
        let prom = engine.render_prometheus();
        assert!(
            prom.contains("ALERTS{alertname=\"hot\",state=\"firing\",topic=\"/sys/n0/power\"} 1"),
            "{prom}"
        );
        engine.observe("/sys/n0/power", 3 * S, 50.0); // resolves
        assert_eq!(engine.alerts()[0].state, AlertState::Resolved);
        assert!(engine.render_prometheus().is_empty());
        assert_eq!(engine.notifications(), 2); // fire + resolve
                                               // unmatched topics never create instances
        engine.observe("/other/temp", 0, 1_000.0);
        assert_eq!(engine.alerts().len(), 1);
    }

    #[test]
    fn wildcard_filters_scope_stream_rules() {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new("hot", "/a/+/power", AlertCondition::Above(1.0)));
        // `+` is exactly one level: a sibling sensor and a deeper topic
        // with the same leaf both stay out of the rule
        for topic in ["/a/x/power", "/a/x/temp", "/a/x/y/power"] {
            engine.observe(topic, 0, 2.0);
        }
        let alerts = engine.alerts();
        assert_eq!(alerts.len(), 1, "{alerts:?}");
        assert_eq!(alerts[0].topic, "/a/x/power");
        assert_eq!(alerts[0].state, AlertState::Firing);
    }

    #[test]
    fn engine_journals_transitions() {
        let journal = Arc::new(EventJournal::new(16));
        let engine = AlertEngine::new();
        engine.set_journal(Arc::clone(&journal));
        engine.add_rule(AlertRule::new("hot", "/p", AlertCondition::Above(1.0)));
        engine.observe("/p", 0, 2.0);
        engine.observe("/p", 1, 0.0);
        let events: Vec<_> =
            journal.since(0).into_iter().filter(|e| e.kind == EventKind::AlertTransition).collect();
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].subject, "hot");
        assert!(events[0].message.contains("firing"));
        assert_eq!(events[0].severity, Severity::Warning);
        assert!(events[1].message.contains("resolved"));
        assert_eq!(events[1].severity, Severity::Info);
        // attaching the same journal again does not re-journal
        engine.set_journal(Arc::clone(&journal));
        assert_eq!(
            journal.since(0).iter().filter(|e| e.kind == EventKind::ConfigChange).count(),
            1
        );
    }

    #[test]
    fn stream_transitions_are_journaled_on_the_wall_clock() {
        let wall = || {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as i64)
                .unwrap()
        };
        const T: i64 = 300_000_000_000; // the reading's own clock: t = 300 s
        let journal = Arc::new(EventJournal::new(16));
        let engine = AlertEngine::new();
        engine.set_journal(Arc::clone(&journal));
        engine.add_rule(AlertRule::new("hot", "/p", AlertCondition::Above(1.0)));
        let before = wall();
        engine.observe("/p", T, 2.0);
        let after = wall();
        let events: Vec<_> =
            journal.since(0).into_iter().filter(|e| e.kind == EventKind::AlertTransition).collect();
        assert_eq!(events.len(), 1, "{events:?}");
        let e = &events[0];
        assert!(
            (before..=after).contains(&e.ts_unix_ns),
            "{} not in {before}..={after}",
            e.ts_unix_ns
        );
        // the data clock stays in the instance and the message
        assert!(e.message.contains(&format!("at {T} ns")), "{}", e.message);
        assert_eq!(engine.alerts()[0].since_ns, T);
    }

    #[test]
    fn absence_detection_fires_on_tick_and_resolves_on_data() {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new(
            "stale",
            "/sys/#",
            AlertCondition::Absent { timeout_ns: 10 * S },
        ));
        engine.observe("/sys/n0/power", 0, 1.0);
        engine.tick(5 * S, None);
        assert_eq!(engine.alerts()[0].state, AlertState::Inactive);
        engine.tick(10 * S, None);
        assert_eq!(engine.alerts()[0].state, AlertState::Firing);
        // fresh data clears the absence on the next stream evaluation
        engine.observe("/sys/n0/power", 11 * S, 1.0);
        assert_eq!(engine.alerts()[0].state, AlertState::Resolved);
    }

    #[test]
    fn zscore_condition_flags_outliers() {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new(
            "anomaly",
            "/t/#",
            AlertCondition::ZScore { sigmas: 4.0, min_samples: 10 },
        ));
        for i in 0..50 {
            engine.observe("/t/temp", i, 100.0 + (i % 5) as f64);
        }
        assert_eq!(engine.alerts()[0].state, AlertState::Inactive, "no false positives");
        engine.observe("/t/temp", 50, 500.0);
        assert_eq!(engine.alerts()[0].state, AlertState::Firing);
    }

    #[test]
    fn rate_condition_needs_two_samples() {
        let engine = AlertEngine::new();
        engine.add_rule(AlertRule::new("spike", "/c/#", AlertCondition::RateAbove(100.0)));
        engine.observe("/c/energy", 0, 0.0);
        assert_eq!(engine.alerts()[0].state, AlertState::Inactive);
        engine.observe("/c/energy", S, 500.0); // 500/s
        assert_eq!(engine.alerts()[0].state, AlertState::Firing);
        engine.observe("/c/energy", 2 * S, 510.0); // 10/s
        assert_eq!(engine.alerts()[0].state, AlertState::Resolved);
    }

    #[test]
    fn query_rules_tick_against_the_db() {
        let db = SensorDb::in_memory();
        for ts in 0..60i64 {
            db.insert("/sys/rack0/n0/power", ts * S, 200.0).unwrap();
            db.insert("/sys/rack0/n1/power", ts * S, 220.0).unwrap();
        }
        let engine = AlertEngine::new();
        engine.add_rule(
            AlertRule::new("hot_rack", "/sys/rack0", AlertCondition::Above(205.0))
                .query_eval(AggFn::Avg, 60 * S),
        );
        engine.tick(60 * S, Some(&db));
        let a = &engine.alerts()[0];
        assert_eq!(a.state, AlertState::Firing, "{a:?}");
        assert!((a.value - 210.0).abs() < 1e-9);
        // querying needs the db; without one the rule is simply skipped
        engine.tick(120 * S, None);
        assert_eq!(engine.alerts()[0].state, AlertState::Firing);
    }

    #[test]
    fn parse_rules_round_trip() {
        let text = "\
# comment
[high_power]
filter = /sys/+/power
condition = above 300
for = 10s
renotify = 1m

[stale]
filter = /sys/#
condition = absent 30s

[hot_rack]
filter = /sys/rack0
condition = above 250
query = avg 60s
";
        let rules = parse_rules(text).unwrap();
        assert_eq!(rules.len(), 3);
        assert_eq!(rules[0].name, "high_power");
        assert_eq!(rules[0].condition, AlertCondition::Above(300.0));
        assert_eq!(rules[0].for_ns, 10 * S);
        assert_eq!(rules[0].renotify_ns, 60 * S);
        assert_eq!(rules[1].condition, AlertCondition::Absent { timeout_ns: 30 * S });
        assert_eq!(rules[2].eval, EvalMode::Query { window_ns: 60 * S, agg: AggFn::Avg });
    }

    #[test]
    fn parse_rules_rejects_malformed_input() {
        assert!(parse_rules("filter = /x").unwrap_err().contains("outside"));
        assert!(parse_rules("[r]\ncondition = above 1").unwrap_err().contains("missing filter"));
        assert!(parse_rules("[r]\nfilter = /x").unwrap_err().contains("missing condition"));
        assert!(parse_rules("[r]\nfilter = /x\ncondition = sideways 1")
            .unwrap_err()
            .contains("unknown condition"));
        assert!(parse_rules("[r]\nfilter = /x\ncondition = above 1\nfor = 10 parsecs")
            .unwrap_err()
            .contains("bad duration"));
        // wildcard filters cannot be queried
        let text = "[r]\nfilter = /sys/#\ncondition = above 1\nquery = avg 10s";
        assert!(parse_rules(text).unwrap_err().contains("plain topic"));
        // a wildcard that does not fill a whole level, or a `#` before the
        // last level, would never match what the rule's author meant
        for filter in ["/a/#/b", "/a/b+", "/a/b#", "/a//b"] {
            let text = format!("[bad]\nfilter = {filter}\ncondition = above 1");
            let err = parse_rules(&text).unwrap_err();
            assert!(err.contains("rule bad: malformed filter"), "{filter}: {err}");
        }
    }

    #[test]
    fn durations_parse_with_suffixes() {
        assert_eq!(parse_duration_ns("1500").unwrap(), 1_500);
        assert_eq!(parse_duration_ns("250ms").unwrap(), 250_000_000);
        assert_eq!(parse_duration_ns("10s").unwrap(), 10 * S);
        assert_eq!(parse_duration_ns("90s").unwrap(), 90 * S);
        assert!(parse_duration_ns("10 fortnights").is_err());
    }
}
