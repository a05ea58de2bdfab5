//! The text surfaces — the Collect Agent's `/aggregate`, the Grafana
//! router's `/query` and `/stats`, `dcdbquery`'s flags — parse through one
//! function, `QueryRequest::from_params`: every accepted spelling of a
//! parameter builds the same request on every surface, and the response
//! bodies are byte for byte what they were before the parsers were merged.

use std::collections::HashMap;
use std::sync::Arc;

use dcdb::collectagent::CollectAgent;
use dcdb::core::{QueryRequest, SensorDb};
use dcdb::http::server::{Handler, Method, Request};
use dcdb::mqtt::payload::encode_readings;
use dcdb::query::AggFn;
use dcdb::store::reading::TimeRange;
use dcdb::store::StoreCluster;
use dcdb_tools::Args;

/// The Grafana router over 2 racks x 3 nodes, 100 readings at 1 ms each.
fn grafana() -> Handler {
    let db = SensorDb::in_memory();
    for rack in 0..2 {
        for node in 0..3 {
            let t = format!("/lrz/sys/rack{rack}/node{node}/power");
            for ts in 0..100 {
                db.insert(&t, ts * 1_000_000, 200.0 + node as f64).unwrap();
            }
        }
    }
    dcdb::core::grafana::router(db).into_handler()
}

/// The Collect Agent's router over 3 nodes, 120 readings at 1 s each.
fn agent() -> Handler {
    let agent = CollectAgent::new(Arc::new(StoreCluster::single()));
    for node in 0..3i64 {
        let readings: Vec<(i64, f64)> =
            (0..120).map(|i| (i * 1_000_000_000, 100.0 + node as f64)).collect();
        agent.handle_publish(&format!("/r0/n{node}/power"), &encode_readings(&readings));
    }
    dcdb::collectagent::rest::router(agent).into_handler()
}

/// The request `GET <url>`, its query string parsed as the server does.
fn request(url: &str) -> Request {
    let (path, query) = url.split_once('?').unwrap_or((url, ""));
    Request {
        method: Method::Get,
        path: path.to_string(),
        query: dcdb::http::server::parse_query(query),
        params: HashMap::new(),
        headers: HashMap::new(),
        body: Vec::new(),
    }
}

fn get(h: &Handler, url: &str) -> (u16, String) {
    let resp = h(&request(url));
    (resp.status.code(), String::from_utf8(resp.body).unwrap())
}

/// `<router> <status> <url> <body>` per line: responses captured from the
/// two routers as they were before their parsers were merged.
const CAPTURED: &str = r#"
agent 200 /aggregate?topic=/r0/n1/power&agg=avg&window=60s {"agg":"avg","datapoints":[[101,0],[101,60000000000]],"sensors":1,"topic":"/r0/n1/power","windowNs":60000000000}
agent 200 /aggregate?topic=/r0&agg=sum&window=2m {"agg":"sum","datapoints":[[36360,0]],"sensors":3,"topic":"/r0","windowNs":120000000000}
agent 200 /aggregate?topic=/r0&agg=avg&window=2m&groupby=2 {"agg":"avg","groups":[{"datapoints":[[100,0]],"group":"/r0/n0","sensors":1},{"datapoints":[[101,0]],"group":"/r0/n1","sensors":1},{"datapoints":[[102,0]],"group":"/r0/n2","sensors":1}],"sensors":3,"topic":"/r0","windowNs":120000000000}
agent 200 /aggregate?topic=/r0&agg=max&window=30s&start=30000000000&end=90000000000 {"agg":"max","datapoints":[[102,30000000000],[102,60000000000]],"sensors":3,"topic":"/r0","windowNs":30000000000}
agent 200 /aggregate?topic=/nope&agg=avg&window=1s {"agg":"avg","datapoints":[],"sensors":0,"topic":"/nope","windowNs":1000000000}
grafana 200 /query?topic=/lrz/sys/rack0/node1/power&start=0&end=5000000 {"datapoints":[[201,0],[201,1000000],[201,2000000],[201,3000000],[201,4000000]],"target":"/lrz/sys/rack0/node1/power","unit":""}
grafana 200 /query?topic=/lrz/sys/rack0/node0/power&maxDataPoints=4 {"datapoints":[[200,12000000],[200,37000000],[200,62000000],[200,87000000]],"target":"/lrz/sys/rack0/node0/power","unit":""}
grafana 200 /query?topic=/lrz/sys/rack0/node1/power&start=0&end=5000000&intervalMs=1000&maxDataPoints=3 {"datapoints":[[201,500000],[201,2500000],[201,4000000]],"target":"/lrz/sys/rack0/node1/power","unit":""}
grafana 200 /query?topic=/lrz/sys/rack0/node1/power&start=0&end=100000000&agg=avg&intervalMs=25 {"datapoints":[[201,0],[201,25000000],[201,50000000],[201,75000000]],"target":"/lrz/sys/rack0/node1/power/+avg","unit":""}
grafana 200 /query?topic=/lrz/sys/rack0/node0/power&start=0&end=100000000&agg=max&maxDataPoints=5 {"datapoints":[[200,0],[200,20000000],[200,40000000],[200,60000000],[200,80000000]],"target":"/lrz/sys/rack0/node0/power/+max","unit":""}
grafana 200 /query?topic=/lrz/sys&start=0&end=100000000&agg=sum&intervalMs=50&groupBy=3 [{"datapoints":[[30150,0],[30150,50000000]],"group":"/lrz/sys/rack0","sensors":3,"target":"/lrz/sys/rack0/+sum","unit":""},{"datapoints":[[30150,0],[30150,50000000]],"group":"/lrz/sys/rack1","sensors":3,"target":"/lrz/sys/rack1/+sum","unit":""}]
grafana 200 /stats?topic=/lrz/sys/rack1/node2/power {"avg":202,"count":100,"max":202,"min":202}
grafana 200 /stats?topic=/lrz/sys/rack1/node2/power&start=10000000&end=20000000 {"avg":202,"count":10,"max":202,"min":202}
grafana 404 /stats?topic=/nope/x {"error":"no data in range"}
"#;

#[test]
fn response_bodies_are_unchanged() {
    let (g, a) = (grafana(), agent());
    for line in CAPTURED.lines().filter(|line| !line.is_empty()) {
        let mut fields = line.splitn(4, ' ');
        let mut next = || fields.next().unwrap();
        let router = if next() == "agent" { &a } else { &g };
        let (status, url, body) = (next().parse().unwrap(), next(), next());
        assert_eq!(get(router, url), (status, body.to_string()), "{url}");
    }
}

#[test]
fn every_spelling_builds_the_same_request_on_every_surface() {
    let (g, a) = (grafana(), agent());
    let want = QueryRequest::new("/lrz/sys")
        .range(TimeRange::new(0, 100_000_000))
        .aggregate(AggFn::Sum, 50_000_000)
        .group_by(3);
    let mut bodies = Vec::new();
    for window in ["window=50ms", "window=50000000", "intervalMs=50"] {
        for group in ["groupby=3", "groupBy=3", "group-by=3"] {
            let params = format!("start=0&end=100000000&agg=sum&{window}&{group}");

            // a URL query string ...
            let url = request(&format!("/query?topic=/lrz/sys&{params}"));
            assert_eq!(QueryRequest::from_url(&url).as_ref(), Ok(&want), "{params}");

            // ... and dcdbquery's flags, the topic positional
            let flags = format!("--{}", params.replace('&', " --").replace('=', " "));
            let args = Args::from_slice(&flags.split(' ').collect::<Vec<_>>());
            let from_cli = QueryRequest::from_params(
                |name| if name == "topic" { Some("/lrz/sys") } else { args.get(name) },
                TimeRange::all(),
            );
            assert_eq!(from_cli.as_ref(), Ok(&want), "{flags}");

            // both routers take every spelling
            bodies.push(get(&g, &format!("/query?topic=/lrz/sys&{params}")));
            assert_eq!(get(&a, &format!("/aggregate?topic=/r0&{params}")).0, 200, "{params}");
        }
    }
    assert_eq!(bodies[0].0, 200);
    assert!(bodies.iter().all(|b| b == &bodies[0]), "one request, one body: {bodies:?}");
}

#[test]
fn reversed_ranges_are_client_errors_on_every_endpoint() {
    let (g, a) = (grafana(), agent());
    let reversed = "topic=/r0&agg=avg&window=1s&start=5&end=1";
    let body = r#"{"error":"invalid request: start must precede end"}"#.to_string();
    assert_eq!(get(&a, &format!("/aggregate?{reversed}")), (400, body.clone()));
    assert_eq!(get(&g, &format!("/query?{reversed}")), (400, body.clone()));
    assert_eq!(get(&g, &format!("/stats?{reversed}")), (400, body));
}
