//! End-to-end tests of the command-line tools as real processes:
//! csvimport → dcdbconfig → dcdbquery over a shared database directory, and
//! a live dcdbpusher → dcdbcollectagent pipeline over TCP.

use std::process::Command;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dcdb-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn csvimport_then_query_roundtrip() {
    let dir = tmp_dir("csv");
    let db = dir.join("db");
    let csv = dir.join("data.csv");
    std::fs::write(
        &csv,
        "sensor,timestamp,value\n/cli/power,1000000000,100\n/cli/power,2000000000,200\n/cli/temp,1000000000,40\n",
    )
    .unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_csvimport"))
        .args(["--db", db.to_str().unwrap(), csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("imported 3 readings"));

    // plain CSV query
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "/cli/power"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("/cli/power,1000000000,100"), "{text}");
    assert!(text.contains("/cli/power,2000000000,200"));

    // analysis op: integral of 100→200 over 1 s = 150 (value·s)
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--op", "integral", "/cli/power"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("/cli/power,150"), "{text}");

    // stats op
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--op", "stats", "/cli/power"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("/cli/power,2,100,200,150,50"), "{text}");

    // a reversed range is a usage error (it used to reach TimeRange::new's
    // assert and abort with a panic)
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--start", "10", "--end", "5", "/cli/power"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("invalid request: start must precede end"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn size_report_shows_compression_ratio() {
    let dir = tmp_dir("sizes");
    let db = dir.join("db");
    let csv = dir.join("series.csv");
    // a realistic fixed-interval power series: should compress well over 4x
    let mut text = String::from("sensor,timestamp,value\n");
    for i in 0..5000i64 {
        text.push_str(&format!("/cli/node0/power,{},{}\n", i * 1_000_000_000, 240 + i % 3));
    }
    std::fs::write(&csv, text).unwrap();

    // csvimport prints the stored-vs-raw report after saving
    let out = Command::new(env!("CARGO_BIN_EXE_csvimport"))
        .args(["--db", db.to_str().unwrap(), csv.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stored: 5000 readings"), "{text}");
    assert!(text.contains("x compression"), "{text}");

    // dcdbquery --sizes reports without needing topics
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--sizes"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stored: 5000 readings"), "{text}");
    let ratio: f64 = text
        .split_once("fixed-width: ")
        .and_then(|(_, rest)| rest.split_once(" bytes, "))
        .and_then(|(_, rest)| rest.split_once('x'))
        .map(|(r, _)| r.parse().unwrap())
        .unwrap();
    assert!(ratio >= 4.0, "expected ≥ 4x CLI-visible compression, got {ratio} in {text}");

    // --sizes followed by a topic must report AND query (the boolean flag
    // must not swallow the topic)
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--sizes", "/cli/node0/power"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stored: 5000 readings"), "{text}");
    assert!(text.contains("/cli/node0/power,0,240"), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_and_thread_knobs_accepted() {
    let dir = tmp_dir("cacheknobs");
    let db = dir.join("db");
    let csv = dir.join("series.csv");
    let mut text = String::from("sensor,timestamp,value\n");
    for i in 0..2000i64 {
        text.push_str(&format!("/knob/n0/power,{},{}\n", i * 1_000_000_000, 100 + i % 5));
    }
    std::fs::write(&csv, text).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_csvimport"))
        .args(["--db", db.to_str().unwrap(), csv.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    // --cache-mb surfaces a block-cache line in the sizes report and the
    // query answers are unchanged
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args([
            "--db",
            db.to_str().unwrap(),
            "--cache-mb",
            "16",
            "--sizes",
            "--agg",
            "avg",
            "--window",
            "10m",
            "/knob",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("block cache:"), "{text}");
    // the report prints after the query, so the cache reflects its work:
    // all 2000 readings (4 blocks) were decoded into the 1 Mi-reading cache
    assert!(text.contains("2000/1048576 readings used"), "16 MB = 1 Mi readings: {text}");
    assert!(text.contains("4 misses"), "{text}");
    assert!(text.contains("/knob/n0/power/+avg,0,102"), "{text}");
    // without --cache-mb the sizes report carries no cache line
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--sizes"])
        .output()
        .unwrap();
    assert!(!String::from_utf8_lossy(&out.stdout).contains("block cache:"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn windowed_aggregation_over_prefix() {
    let dir = tmp_dir("agg");
    let db = dir.join("db");
    let csv = dir.join("data.csv");
    // two nodes, 10 minutes of 1 Hz power data
    let mut text = String::from("sensor,timestamp,value\n");
    for node in 0..2i64 {
        for i in 0..600i64 {
            text.push_str(&format!("/agg/n{node}/power,{},{}\n", i * 1_000_000_000, 100 + node));
        }
    }
    std::fs::write(&csv, text).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_csvimport"))
        .args(["--db", db.to_str().unwrap(), csv.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    // 5-minute average over one sensor
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--agg", "avg", "--window", "5m", "/agg/n0/power"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sensor,window_start,avg"), "{text}");
    assert!(text.contains("/agg/n0/power/+avg,0,100"), "{text}");
    assert!(text.contains("/agg/n0/power/+avg,300000000000,100"), "{text}");

    // tree-prefix fan-in: sum across both nodes per 10-minute window
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--agg", "sum", "--window", "10m", "/agg"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // 600 readings × (100 + 101)
    assert!(text.contains("/agg/+sum,0,120600"), "{text}");

    // bad flags are rejected with a usage hint
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "--agg", "avg", "/agg"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--window"), "window hint expected");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn grouped_aggregation_prints_group_key_column() {
    let dir = tmp_dir("groupby");
    let db = dir.join("db");
    let csv = dir.join("data.csv");
    // a 2-rack simulated tree: 2 nodes per rack, 10 minutes of 1 Hz power
    let mut text = String::from("sensor,timestamp,value\n");
    for rack in 0..2i64 {
        for node in 0..2i64 {
            for i in 0..600i64 {
                text.push_str(&format!(
                    "/sim/rack{rack}/n{node}/power,{},{}\n",
                    i * 1_000_000_000,
                    100 * (rack + 1)
                ));
            }
        }
    }
    std::fs::write(&csv, text).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_csvimport"))
        .args(["--db", db.to_str().unwrap(), csv.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    // per-rack average: one series per group, keyed by the rack prefix
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args([
            "--db",
            db.to_str().unwrap(),
            "--agg",
            "avg",
            "--window",
            "10m",
            "--group-by",
            "2",
            "/sim",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("group,window_start,avg"), "{text}");
    // rack0 nodes sit at 100 W, rack1 nodes at 200 W
    assert!(text.contains("/sim/rack0,0,100\n"), "{text}");
    assert!(text.contains("/sim/rack1,0,200\n"), "{text}");

    // a bad level is rejected by the shared request parser
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args([
            "--db",
            db.to_str().unwrap(),
            "--agg",
            "avg",
            "--window",
            "10m",
            "--group-by",
            "many",
            "/sim",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad group-by level"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dcdbconfig_manages_the_database() {
    let dir = tmp_dir("cfg");
    let db = dir.join("db");
    let csv = dir.join("data.csv");
    let rows: String =
        (0..20i64).map(|i| format!("/cfg/s,{},{}\n", i * 1_000_000_000, i)).collect();
    std::fs::write(&csv, rows).unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_csvimport"))
        .args(["--db", db.to_str().unwrap(), csv.to_str().unwrap()])
        .status()
        .unwrap();
    assert!(status.success());

    // sensor list shows the SID and topic
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbconfig"))
        .args(["--db", db.to_str().unwrap(), "sensor", "list"])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("/cfg/s"), "{text}");

    // cleanup deletes old data
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbconfig"))
        .args(["--db", db.to_str().unwrap(), "db", "cleanup", "--before", "10000000000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "/cfg/s"])
        .output()
        .unwrap();
    let remaining = String::from_utf8_lossy(&out.stdout).lines().count() - 1; // header
    assert_eq!(remaining, 10, "half the readings survive the cleanup");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pusher_and_collectagent_binaries_talk() {
    let dir = tmp_dir("live");
    let db = dir.join("db");
    // pick a free port by binding and releasing
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let mqtt = format!("127.0.0.1:{port}");
    let rest_port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().port()
    };
    let agent = Command::new(env!("CARGO_BIN_EXE_dcdbcollectagent"))
        .args([
            "--mqtt",
            &mqtt,
            "--rest",
            &format!("127.0.0.1:{rest_port}"),
            "--duration",
            "6",
            "--db",
            db.to_str().unwrap(),
            "--nodes",
            "4",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(700)); // broker up

    let pusher = Command::new(env!("CARGO_BIN_EXE_dcdbpusher"))
        .args([
            "--broker",
            &mqtt,
            "--prefix",
            "/cli/node0",
            "--plugins",
            "tester",
            "--sensors",
            "20",
            "--interval",
            "200",
            "--duration",
            "3",
        ])
        .output()
        .unwrap();
    assert!(pusher.status.success(), "{}", String::from_utf8_lossy(&pusher.stderr));
    assert!(String::from_utf8_lossy(&pusher.stdout).contains("pushed"));

    let out = agent.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("processed"), "{text}");
    assert!(text.contains("database saved"), "{text}");

    // the sharded deployment recorded its shape for later tools
    assert!(db.join("cluster.list").exists(), "cluster.list missing");
    let meta = std::fs::read_to_string(db.join("cluster.list")).unwrap();
    assert!(meta.contains("nodes 4"), "{meta}");

    // the persisted database is queryable by dcdbquery
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbquery"))
        .args(["--db", db.to_str().unwrap(), "/cli/node0/tester/t0"])
        .output()
        .unwrap();
    let lines = String::from_utf8_lossy(&out.stdout).lines().count();
    assert!(lines > 5, "expected stored readings, got {lines} lines");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dcdbgenplugin_generates_compilable_shape() {
    let dir = tmp_dir("gen");
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbgenplugin"))
        .args(["--name", "my_device", "--out", dir.to_str().unwrap(), "--interval", "500"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let skeleton = std::fs::read_to_string(dir.join("my_device.rs")).unwrap();
    assert!(skeleton.contains("pub struct MyDevicePlugin"));
    assert!(skeleton.contains("impl Plugin for MyDevicePlugin"));
    assert!(skeleton.contains("CUSTOM CODE"));
    let conf = std::fs::read_to_string(dir.join("my_device.conf")).unwrap();
    assert!(conf.contains("interval 500"));
    // invalid names rejected
    let out = Command::new(env!("CARGO_BIN_EXE_dcdbgenplugin"))
        .args(["--name", "Bad-Name", "--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_dir_all(&dir).unwrap();
}
