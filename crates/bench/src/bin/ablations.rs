//! Regenerates the design ablations (`experiments::ablations`).

// CLI binary / example: stdout is the product.
#![allow(clippy::print_stdout)]
fn main() {
    println!("Ablation 1: storage partitioning (query fan-out of node-level queries)\n");
    let p = dcdb_bench::experiments::ablations::partition_ablation(8, 64, 100);
    println!(
        "  {} servers: prefix partitioner touches {:.2} server(s)/query, random {:.2}",
        p.servers, p.prefix_fanout, p.random_fanout
    );
    println!(
        "\nAblation 2: push vs pull read-timestamp alignment (50 hosts, 1 h since NTP sync)\n"
    );
    let t = dcdb_bench::experiments::ablations::timing_ablation(50, 1000, 10);
    println!(
        "  push spread {:.1} ms vs pull spread {:.1} ms",
        t.push_spread_ns as f64 / 1e6,
        t.pull_spread_ns as f64 / 1e6
    );
}
