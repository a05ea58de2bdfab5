//! Design-choice ablations — experiments the paper argues
//! qualitatively, quantified here:
//!
//! * **SID-prefix vs random partitioning**: DCDB routes a sensor sub-tree to
//!   one storage server to avoid inter-server traffic (§4.3).  The ablation
//!   counts how many distinct servers a node-level query fan-out touches.
//! * **Push vs pull timing**: push-based monitoring samples on a
//!   synchronised grid; a pull-based server polls hosts with per-host phase
//!   offsets, so readings of the same round scatter in time (§4.1, §8's
//!   LDMS critique).  The ablation measures the cross-host timestamp spread.

use std::sync::Arc;

use dcdb_sid::{PartitionMap, SensorId};
use dcdb_sim::clock::align_up;
use dcdb_sim::{NodeClock, SimClock, NS_PER_MS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Partitioning ablation result.
#[derive(Debug, Clone)]
pub struct PartitionAblation {
    /// Storage servers in the cluster.
    pub servers: usize,
    /// Mean distinct servers touched when querying all sensors of one node
    /// with hierarchical (prefix) partitioning.
    pub prefix_fanout: f64,
    /// Same with the random partitioner.
    pub random_fanout: f64,
}

/// Query fan-out of node-level queries under both partitioners.
pub fn partition_ablation(
    servers: usize,
    nodes: usize,
    sensors_per_node: usize,
) -> PartitionAblation {
    let prefix = PartitionMap::prefix(servers, 3);
    let random = PartitionMap::random(servers);
    let fanout = |map: &PartitionMap| -> f64 {
        let mut total = 0usize;
        for n in 0..nodes {
            let mut touched = std::collections::HashSet::new();
            for s in 0..sensors_per_node {
                let sid = SensorId::from_topic(&format!("/sys/rack{}/node{n}/s{s}", n % 8))
                    .expect("generated topic is well-formed");
                touched.insert(map.node_for(sid));
            }
            total += touched.len();
        }
        total as f64 / nodes as f64
    };
    PartitionAblation { servers, prefix_fanout: fanout(&prefix), random_fanout: fanout(&random) }
}

/// Push-vs-pull timing ablation result.
#[derive(Debug, Clone)]
pub struct TimingAblation {
    /// Hosts sampled.
    pub hosts: usize,
    /// Max spread of same-round read timestamps under push (grid-aligned,
    /// NTP-synchronised), ns.
    pub push_spread_ns: i64,
    /// Max spread under pull (server polls hosts sequentially), ns.
    pub pull_spread_ns: i64,
}

/// Measure timestamp alignment across `hosts` for one sampling round.
///
/// Push: every host reads at the grid tick of its NTP-disciplined clock.
/// Pull: a central server polls hosts one after another at `poll_gap_ms`
/// spacing (the fundamental serialisation of pull-based collection).
pub fn timing_ablation(hosts: usize, interval_ms: i64, poll_gap_ms: i64) -> TimingAblation {
    let base = SimClock::new();
    let mut rng = StdRng::seed_from_u64(42);
    let clocks: Vec<NodeClock> =
        (0..hosts).map(|_| NodeClock::new(Arc::clone(&base), rng.gen_range(-20.0..20.0))).collect();
    // an hour since the last NTP sync accrues realistic drift
    base.advance(3600 * 1_000_000_000);

    let grid = align_up(base.now(), interval_ms * NS_PER_MS);
    // push: each host reads when its local clock shows the grid time; the
    // true time of that read differs only by the residual clock error
    let push_times: Vec<i64> = clocks.iter().map(|c| grid + (grid - c.now())).collect();
    // pull: the server reaches host i at grid + i·gap
    let pull_times: Vec<i64> =
        (0..hosts).map(|i| grid + i as i64 * poll_gap_ms * NS_PER_MS).collect();

    let spread =
        |v: &[i64]| v.iter().max().expect("hosts > 0") - v.iter().min().expect("hosts > 0");
    TimingAblation {
        hosts,
        push_spread_ns: spread(&push_times),
        pull_spread_ns: spread(&pull_times),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_partitioning_keeps_queries_local() {
        let a = partition_ablation(8, 64, 100);
        assert_eq!(a.prefix_fanout, 1.0, "node sub-tree must live on one server");
        assert!(a.random_fanout > 6.0, "random partitioning scatters: fan-out {}", a.random_fanout);
    }

    #[test]
    fn single_server_degenerate_case() {
        let a = partition_ablation(1, 8, 10);
        assert_eq!(a.prefix_fanout, 1.0);
        assert_eq!(a.random_fanout, 1.0);
    }

    #[test]
    fn push_aligns_better_than_pull() {
        let t = timing_ablation(50, 1000, 10);
        // pull spreads reads across hosts × gap = 490 ms
        assert!(t.pull_spread_ns >= 400 * NS_PER_MS);
        // push spread is bounded by clock drift (±20 ppm over an hour ≈ ±72 ms)
        assert!(t.push_spread_ns < 200 * NS_PER_MS);
        assert!(
            t.push_spread_ns * 2 < t.pull_spread_ns,
            "push {} vs pull {}",
            t.push_spread_ns,
            t.pull_spread_ns
        );
    }

    #[test]
    fn ntp_sync_shrinks_push_spread_further() {
        // right after a sync, residual error is ~0
        let base = SimClock::new();
        let clocks: Vec<NodeClock> =
            (0..10).map(|i| NodeClock::new(Arc::clone(&base), i as f64)).collect();
        base.advance(3600 * 1_000_000_000);
        for c in &clocks {
            c.ntp_sync();
        }
        let errs: Vec<i64> = clocks.iter().map(|c| c.error_ns()).collect();
        assert!(errs.iter().all(|e| *e == 0));
    }
}
