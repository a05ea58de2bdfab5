//! The four workloads: frozen constants, seeded names, preload series and
//! query sequences.  Everything here is a pure function of `(workload, seed)`;
//! the system under test sees only the topics, payloads and URLs made here.

/// Pushers in every workload (`/<site>/rack{0..3}/node{0,1}`).
pub const PUSHERS: usize = 8;
/// Every pusher is driven once per this period, staggered by a `PUSHERS`-th.
pub const TICK_NS: i64 = 100_000_000;
/// Preloaded series: one reading per second ...
pub const PRELOAD_STEP_NS: i64 = 1_000_000_000;
/// ... starting here, clear of the live pushers' clock, which starts at 0.
pub const PRELOAD_T0_NS: i64 = 100_000 * 1_000_000_000;
/// Preload arrives in publishes of this many readings, oldest hour first.
pub const PRELOAD_CHUNK: usize = 3600;
/// Sensor groups below a node in the preloaded history.
pub const GROUPS: [&str; 4] = ["cpu", "mem", "net", "pwr"];
/// Live-panel and dashboard window sizes, scan window size.
pub const LIVE_WINDOW_NS: i64 = 10_000_000_000;
pub const LIVE_SPAN_NS: i64 = 60_000_000_000;
pub const DASH_WINDOW_NS: i64 = 300_000_000_000;
pub const SCAN_WINDOW_NS: i64 = 600_000_000_000;
pub const HOUR_NS: i64 = 3_600_000_000_000;
/// Sensors in the dashboard's hot set.
pub const HOT_SENSORS: usize = 32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `/aggregate` avg over the last 60 s of one live sensor.
    LivePanel,
    /// 1-h windowed avg/max and `/cache` lookups over the hot set.
    Dashboard,
    /// Grouped sub-tree fan-in over one node and a random hour.
    Scan,
}

#[derive(Debug, Clone, Copy)]
pub struct Preload {
    /// Sensors per node (a multiple of `GROUPS.len()`).
    pub sensors_per_node: usize,
    /// Readings per sensor.
    pub readings: usize,
}

/// One workload's frozen constants (why each exists: `BENCHMARK.json` and
/// the README).  Rates were calibrated once on the 2-CPU reference host and
/// do not adapt at run time.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Tester sensors per pusher.
    pub sensors: usize,
    /// Tester sampling interval.
    pub sample_ns: i64,
    /// Burst send policy with compressed payloads, flushed once per tick.
    pub burst: bool,
    pub preload: Option<Preload>,
    /// Paced queries per second.
    pub query_rate: f64,
    pub mix: Mix,
}

const HISTORY: Preload = Preload { sensors_per_node: 64, readings: 2 * 3600 };

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "fanin_live",
        sensors: 1500,
        sample_ns: 100_000_000,
        burst: false,
        preload: None,
        query_rate: 80.0,
        mix: Mix::LivePanel,
    },
    Spec {
        name: "burst_live",
        sensors: 30,
        sample_ns: 2_000_000,
        burst: true,
        preload: None,
        query_rate: 80.0,
        mix: Mix::LivePanel,
    },
    Spec {
        name: "dashboard_hot",
        sensors: 63,
        sample_ns: 100_000_000,
        burst: false,
        preload: Some(HISTORY),
        query_rate: 1000.0,
        mix: Mix::Dashboard,
    },
    Spec {
        name: "scan_cold",
        sensors: 63,
        sample_ns: 100_000_000,
        burst: false,
        preload: Some(HISTORY),
        query_rate: 80.0,
        mix: Mix::Scan,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Global tick period: pusher `j % PUSHERS` is driven at tick `j`.
    pub fn tick_period_ns(&self) -> i64 {
        TICK_NS / PUSHERS as i64
    }

    /// Readings one pusher makes per tick.
    pub fn readings_per_tick(&self) -> usize {
        self.sensors * (TICK_NS / self.sample_ns) as usize
    }

    /// Offered ingest load of the paced phases, readings per second.
    pub fn paced_readings_per_s(&self) -> f64 {
        (self.readings_per_tick() * PUSHERS) as f64 * 1e9 / TICK_NS as f64
    }
}

/// splitmix64: the one hash behind every seeded choice.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload instance: a spec plus the seed that names and fills it.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub spec: Spec,
    pub seed: u64,
    site: String,
    /// Preloaded sensor topics, node-major.
    history: Vec<String>,
    hot: Vec<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agg {
    Avg,
    Max,
}

impl Agg {
    pub fn name(self) -> &'static str {
        match self {
            Agg::Avg => "avg",
            Agg::Max => "max",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Query {
    LivePanel { pusher: usize, sensor: usize },
    Window { sensor: usize, agg: Agg },
    Cache { sensor: usize },
    Scan { node: usize, start_ns: i64 },
}

impl Inputs {
    pub fn new(spec: Spec, seed: u64) -> Inputs {
        let h = |tag: u64, i: u64| mix64(seed ^ mix64(tag << 32 | i));
        let site = format!("/hpc{:04x}", h(1, 0) & 0xffff);
        let mut history = Vec::new();
        if let Some(p) = spec.preload {
            let per_group = p.sensors_per_node / GROUPS.len();
            for node in 0..PUSHERS {
                for (g, group) in GROUPS.iter().enumerate() {
                    for j in 0..per_group {
                        let tag = h(2, (node * 1000 + g * 100 + j) as u64) & 0xfff;
                        history.push(format!(
                            "{}/{group}/s{j:02}x{tag:03x}",
                            node_prefix(&site, node)
                        ));
                    }
                }
            }
        }
        // the hot set: distinct sensors picked by the seed
        let mut hot = Vec::new();
        let mut i = 0;
        while !history.is_empty() && hot.len() < HOT_SENSORS.min(history.len()) {
            let pick = (h(3, i) % history.len() as u64) as usize;
            if !hot.contains(&pick) {
                hot.push(pick);
            }
            i += 1;
        }
        Inputs { spec, seed, site, history, hot }
    }

    fn h(&self, tag: u64, i: u64) -> u64 {
        mix64(self.seed ^ mix64(tag << 32 | i))
    }

    /// Topic prefix of pusher `k`.
    pub fn pusher_prefix(&self, k: usize) -> String {
        node_prefix(&self.site, k)
    }

    /// Topic of tester sensor `i` of pusher `k` (the plugin's own naming).
    pub fn tester_topic(&self, k: usize, i: usize) -> String {
        format!("{}/tester/t{i}", self.pusher_prefix(k))
    }

    /// The QoS-1 marker's topic; its payload is empty, so it stores nothing.
    pub fn marker_topic(&self) -> String {
        format!("{}/bench/marker", self.site)
    }

    pub fn history_topics(&self) -> &[String] {
        &self.history
    }

    pub fn hot_set(&self) -> &[usize] {
        &self.hot
    }

    pub fn history_len(&self) -> usize {
        self.spec.preload.map_or(0, |p| p.readings)
    }

    pub fn history_ts(&self, k: usize) -> i64 {
        PRELOAD_T0_NS + k as i64 * PRELOAD_STEP_NS
    }

    /// Reading `k` of preloaded sensor `s`: a base level, a slow triangle
    /// wave and two bits of noise, all in quarter units so that sums over
    /// any window are exact in `f64` whatever the order of addition.
    pub fn history_value(&self, s: usize, k: usize) -> f64 {
        let hs = self.h(4, s as u64);
        let base = 100 + (hs % 400) as i64;
        let period = 600 + ((hs >> 16) % 3000) as i64;
        let phase = ((hs >> 32) % period as u64) as i64;
        let x = (k as i64 + phase) % period;
        let tri = (x * 160 / period - 80).abs(); // 0..=80 quarter units
        let noise = (self.h(5, (s as u64) << 24 | k as u64) & 3) as i64;
        base as f64 + (tri + noise) as f64 * 0.25
    }

    /// Value the tester plugin gives sensor `i` at `ts` (its documented ramp).
    pub fn tester_value(i: usize, ts: i64) -> f64 {
        ts as f64 / 1e9 + i as f64 * 1e-3
    }

    /// Query number `i` of this workload's sequence.
    pub fn query(&self, i: u64) -> Query {
        let r = self.h(6, i);
        match self.spec.mix {
            Mix::LivePanel => Query::LivePanel {
                pusher: (r % PUSHERS as u64) as usize,
                sensor: ((r >> 8) % self.spec.sensors as u64) as usize,
            },
            Mix::Dashboard => {
                let sensor = self.hot[((r >> 8) % self.hot.len() as u64) as usize];
                match r % 4 {
                    0 => Query::Cache { sensor },
                    1 | 2 => Query::Window { sensor, agg: Agg::Avg },
                    _ => Query::Window { sensor, agg: Agg::Max },
                }
            }
            Mix::Scan => {
                let hours = self.history_len() as i64 * PRELOAD_STEP_NS - HOUR_NS;
                let minutes = (hours / 60_000_000_000).max(1) as u64;
                Query::Scan {
                    node: (r % PUSHERS as u64) as usize,
                    start_ns: PRELOAD_T0_NS + ((r >> 8) % (minutes + 1)) as i64 * 60_000_000_000,
                }
            }
        }
    }

    /// Time range `[start, end)` of a query; `now_ns` is the live clock.
    pub fn range(&self, q: &Query, now_ns: i64) -> (i64, i64) {
        match q {
            Query::LivePanel { .. } => ((now_ns - LIVE_SPAN_NS).max(0), now_ns + 1),
            Query::Window { .. } => {
                let end = self.history_ts(self.history_len());
                (end - HOUR_NS, end)
            }
            Query::Cache { .. } => (0, 0),
            Query::Scan { start_ns, .. } => (*start_ns, start_ns + HOUR_NS),
        }
    }

    /// The URL the query client sends.
    pub fn url(&self, q: &Query, now_ns: i64) -> String {
        let (start, end) = self.range(q, now_ns);
        match q {
            Query::LivePanel { pusher, sensor } => format!(
                "/aggregate?topic={}&agg=avg&window={LIVE_WINDOW_NS}&start={start}&end={end}",
                self.tester_topic(*pusher, *sensor)
            ),
            Query::Window { sensor, agg } => format!(
                "/aggregate?topic={}&agg={}&window={DASH_WINDOW_NS}&start={start}&end={end}",
                self.history[*sensor],
                agg.name()
            ),
            Query::Cache { sensor } => format!("/cache{}", self.history[*sensor]),
            Query::Scan { node, .. } => format!(
                "/aggregate?topic={}&agg=avg&window={SCAN_WINDOW_NS}&start={start}&end={end}&groupby=4",
                self.pusher_prefix(*node)
            ),
        }
    }

    /// Everything the system will be given, as bytes: used to check that a
    /// seed fixes the inputs.  `queries` bounds the query sequence.
    pub fn fingerprint(&self, queries: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for k in 0..PUSHERS {
            out.extend_from_slice(self.pusher_prefix(k).as_bytes());
        }
        out.extend_from_slice(self.marker_topic().as_bytes());
        for (s, topic) in self.history.iter().enumerate() {
            out.extend_from_slice(topic.as_bytes());
            for k in (0..self.history_len()).step_by(97) {
                out.extend_from_slice(&self.history_value(s, k).to_le_bytes());
            }
        }
        for i in 0..queries {
            out.extend_from_slice(self.url(&self.query(i), 123 * TICK_NS).as_bytes());
        }
        out
    }
}

fn node_prefix(site: &str, k: usize) -> String {
    format!("{site}/rack{}/node{}", k / 2, k % 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for spec in WORKLOADS {
            let a = Inputs::new(spec, 7).fingerprint(200);
            let b = Inputs::new(spec, 7).fingerprint(200);
            let c = Inputs::new(spec, 8).fingerprint(200);
            assert!(a == b, "{}: same seed differs", spec.name);
            assert!(a != c, "{}: other seed is identical", spec.name);
        }
    }

    #[test]
    fn frozen_shapes() {
        let fanin = find("fanin_live").unwrap();
        assert_eq!(fanin.readings_per_tick(), 1500);
        assert_eq!(fanin.paced_readings_per_s(), 120_000.0);
        let burst = find("burst_live").unwrap();
        assert_eq!(burst.readings_per_tick(), fanin.readings_per_tick());
        assert_eq!(burst.tick_period_ns(), 12_500_000);
        let dash = Inputs::new(*find("dashboard_hot").unwrap(), 1);
        assert_eq!(dash.history_topics().len(), 512);
        assert_eq!(dash.hot_set().len(), HOT_SENSORS);
        assert!(find("nope").is_none());
    }

    #[test]
    fn history_values_are_quarter_units_and_topics_are_distinct() {
        let w = Inputs::new(*find("scan_cold").unwrap(), 3);
        for s in [0, 17, 511] {
            for k in [0, 1, 3599, 7_199] {
                let v = w.history_value(s, k);
                assert_eq!((v * 4.0).fract(), 0.0);
                assert!((100.0..=521.0).contains(&v), "{v}");
            }
        }
        let mut topics = w.history_topics().to_vec();
        topics.sort();
        topics.dedup();
        assert_eq!(topics.len(), 512);
    }

    #[test]
    fn scan_ranges_stay_inside_the_history() {
        let w = Inputs::new(*find("scan_cold").unwrap(), 9);
        let end = w.history_ts(w.history_len());
        for i in 0..2000 {
            let q = w.query(i);
            let (s, e) = w.range(&q, 0);
            assert!(s >= PRELOAD_T0_NS && e <= end, "query {i}: {s}..{e}");
        }
    }
}
