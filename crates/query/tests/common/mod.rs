//! Helpers shared by the query property tests.

use dcdb_query::{AggFn, QueryEngine, SensorGroup};
use dcdb_sid::SensorId;
use dcdb_store::reading::{Reading, TimeRange};

/// The plain sensor-tree fan-in over `sids`: one untraced group.
pub fn fan_in(
    engine: &QueryEngine,
    sids: &[(SensorId, f64)],
    range: TimeRange,
    window_ns: i64,
    agg: AggFn,
) -> Vec<Reading> {
    let group = SensorGroup { key: (), sids: sids.to_vec() };
    let (mut out, _) = engine.aggregate(vec![group], range, window_ns, agg, false);
    out.pop().expect("one group").1
}
