//! One module per paper artefact; see the crate docs for the index.

pub mod ablations;
pub mod alerts;
pub mod cache;
pub mod compression;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod maintenance;
pub mod obs;
pub mod query;
pub mod table1;

use dcdb_query::{AggFn, QueryEngine, SensorGroup};
use dcdb_sid::SensorId;
use dcdb_store::{Reading, TimeRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A plain sensor-tree fan-in: [`QueryEngine::aggregate`] over one
/// untraced group of `sids`.
pub(crate) fn fan_in(
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

/// Deterministic measurement jitter for the overhead heat maps: the paper's
/// cells scatter around the model value and clamp at zero (a monitored run
/// is often not measurably slower than the median reference run).
pub fn measurement_noise(seed: u64, magnitude: f64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.gen_range(-magnitude..magnitude)
}
