//! An idle Collect Agent wakes no thread.  Periodic wake-ups are the
//! operating-system noise that disturbs the jobs sharing a node (paper
//! §6.2.1), so an agent with an open MQTT connection, an open keep-alive
//! HTTP connection and a self-monitor on a long interval must sit still.
//!
//! One test in its own binary: the count covers every thread of the
//! process, so no other test may run beside it.
#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use dcdb::collectagent::{rest, CollectAgent};
use dcdb::mqtt::broker::BrokerConfig;
use dcdb::mqtt::{Client, ClientConfig};
use dcdb::store::StoreCluster;

/// Context switches so far of every thread of this process, by thread id,
/// with the thread's name.
fn context_switches() -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs").flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else { continue };
        let field = |key: &str| {
            status.lines().find_map(|l| l.strip_prefix(key)).map(str::trim).unwrap_or("")
        };
        let switches: u64 = ["voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"]
            .iter()
            .map(|k| field(k).parse::<u64>().unwrap_or(0))
            .sum();
        let tid = task.file_name().to_string_lossy().into_owned();
        out.insert(tid, (field("Name:").to_string(), switches));
    }
    out
}

#[test]
fn an_idle_agent_wakes_at_most_five_times_a_second() {
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    let broker = agent.start_broker(BrokerConfig::default()).expect("broker");
    let rest = rest::serve(Arc::clone(&agent), "127.0.0.1:0".parse().unwrap()).expect("rest");
    let _monitor = agent.start_self_monitor("agent0", Duration::from_secs(3600));

    let client = Client::connect(ClientConfig::new(broker.local_addr(), "idle")).expect("mqtt");
    client.publish_qos1("/idle/node0/x", b"").expect("acked");
    let mut http = TcpStream::connect(rest.local_addr()).expect("http");
    http.write_all(b"GET /stats HTTP/1.1\r\n\r\n").expect("request");
    let mut response = [0u8; 4096];
    let n = http.read(&mut response).expect("response");
    assert!(response[..n].starts_with(b"HTTP/1.1 200 "));
    assert!(String::from_utf8_lossy(&response[..n]).contains("Connection: keep-alive"));

    std::thread::sleep(Duration::from_millis(100));
    let before = context_switches();
    std::thread::sleep(Duration::from_secs(1));
    let after = context_switches();
    let mut woken: Vec<(String, u64)> = after
        .iter()
        .map(|(tid, (name, n))| (format!("{name}/{tid}"), n - before.get(tid).map_or(0, |b| b.1)))
        .filter(|(_, n)| *n > 0)
        .collect();
    woken.sort();
    let total: u64 = woken.iter().map(|(_, n)| n).sum();
    // the measuring thread's own one-second sleep is one of them
    assert!(total <= 5, "{total} wake-ups in 1 s: {woken:?}");
    drop(client);
}
