//! Cluster monitoring: the paper's deployment scenario (Fig. 1) in miniature.
//!
//! Eight simulated KNL compute nodes run CORAL-2 workloads; each node's
//! Pusher samples Perfevents + ProcFS + SysFS in-band, one management-node
//! Pusher samples every BMC out-of-band via IPMI, and all of them publish
//! into a Collect Agent backed by a four-node storage cluster partitioned by
//! SID prefix.  At the end we show per-node data locality and query a few
//! sensors hierarchically.
//!
//! ```text
//! cargo run --example cluster_monitoring
//! ```

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]

use std::sync::Arc;

use dcdb::collectagent::CollectAgent;
use dcdb::pusher::mqtt_out::{MqttBackend, MqttOut, RawPublishCallback, SendPolicy};
use dcdb::pusher::plugins::{IpmiPlugin, PerfeventsPlugin, ProcFsPlugin, SysFsPlugin};
use dcdb::pusher::scheduler::{Pusher, PusherConfig};
use dcdb::sid::PartitionMap;
use dcdb::sim::{Arch, SimClock, SimNode, Workload, NS_PER_SEC};
use dcdb::store::reading::TimeRange;
use dcdb::store::{NodeConfig, StoreCluster};

fn main() {
    let clock = SimClock::new();
    let workloads = [Workload::Kripke, Workload::Amg, Workload::Lammps, Workload::Quicksilver];

    // Storage: 4 servers, sub-trees pinned by the node level of the hierarchy.
    let store = Arc::new(StoreCluster::new(NodeConfig::default(), PartitionMap::prefix(4, 4), 1));
    let agent = CollectAgent::new(store);
    // every Pusher publishes in process, straight into the agent
    let to_agent = Arc::clone(&agent);
    let publish: RawPublishCallback =
        Arc::new(move |topic, payload| to_agent.handle_publish(topic, payload));

    // Compute nodes with in-band Pushers.
    let mut nodes: Vec<SimNode> = (0..8)
        .map(|i| {
            SimNode::new(
                Arch::KnightsLanding,
                format!("node{i:02}"),
                Arc::clone(&clock),
                workloads[i % workloads.len()],
                i as u64,
            )
        })
        .collect();
    let pushers: Vec<Pusher> = nodes
        .iter()
        .map(|n| {
            let p = Pusher::new(
                PusherConfig {
                    prefix: format!("/lrz/coolmuc3/rack0/{}", n.hostname),
                    ..Default::default()
                },
                MqttOut::new(MqttBackend::Callback(Arc::clone(&publish)), SendPolicy::Continuous),
            );
            p.add_plugin(Box::new(PerfeventsPlugin::standard(Arc::clone(&n.perf), 1000)));
            p.add_plugin(Box::new(ProcFsPlugin::standard(
                Arc::clone(&n.procfs) as Arc<dyn dcdb::sim::devices::TextFileSource>,
                1000,
            )));
            p.add_plugin(Box::new(SysFsPlugin::for_sim_node(Arc::clone(&n.sysfs), 1000)));
            p
        })
        .collect();

    // One out-of-band Pusher on the management node reads all BMCs via IPMI.
    let mgmt = Pusher::new(
        PusherConfig { prefix: "/lrz/coolmuc3/oob".into(), ..Default::default() },
        MqttOut::new(
            MqttBackend::Callback(Arc::clone(&publish)),
            // bursts twice per minute, the paper's network-friendly setting
            SendPolicy::Burst { interval_ns: 30 * NS_PER_SEC },
        ),
    );
    mgmt.add_plugin(Box::new(IpmiPlugin::discover(
        nodes.iter().map(|n| (n.hostname.clone(), Arc::clone(&n.bmc))).collect(),
        5000,
    )));

    // Run 60 virtual seconds.
    println!(
        "monitoring {} compute nodes ({} in-band sensors each) + {} BMC sensors out-of-band",
        nodes.len(),
        pushers[0].sensor_count(),
        mgmt.sensor_count()
    );
    for sec in 0..60 {
        let now = sec * NS_PER_SEC;
        clock.advance_to(now);
        for n in nodes.iter_mut() {
            n.advance_to(now);
        }
        for p in &pushers {
            p.sample_due(now);
        }
        mgmt.sample_due(now);
    }
    mgmt.out().flush();

    let stats = agent.stats();
    println!(
        "collect agent stored {} readings from {} messages",
        stats.readings.load(std::sync::atomic::Ordering::Relaxed),
        stats.messages.load(std::sync::atomic::Ordering::Relaxed)
    );

    // Data locality: every node sub-tree lives on exactly one storage server,
    // and different nodes spread across the cluster.
    let mut owners = std::collections::HashSet::new();
    for host in ["node00", "node03", "node07"] {
        let topics = agent.registry().sids_under(&format!("/lrz/coolmuc3/rack0/{host}"));
        let mut servers: Vec<usize> =
            topics.iter().map(|(_, sid)| agent.store().primary_for(*sid)).collect();
        servers.sort();
        servers.dedup();
        println!("{host}: {} sensors on storage server(s) {servers:?}", topics.len());
        assert_eq!(servers.len(), 1, "prefix partitioning keeps sub-trees together");
        owners.insert(servers[0]);
    }
    assert!(owners.len() >= 2, "node sub-trees spread across storage servers");

    // Hierarchical query: instructions of node00/cpu0 over the minute.
    let sid = agent
        .registry()
        .get("/lrz/coolmuc3/rack0/node00/cpu0/instructions")
        .expect("sensor registered");
    let series = agent.store().query(sid, TimeRange::all());
    println!(
        "node00/cpu0 instructions: {} samples, last delta = {:.2e}",
        series.len(),
        series.last().map(|r| r.value).unwrap_or(0.0)
    );
    assert!(series.len() >= 50);
    println!("cluster monitoring OK");
}
