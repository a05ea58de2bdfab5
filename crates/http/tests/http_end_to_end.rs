//! End-to-end tests of the HTTP server + client over real sockets.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use dcdb_http::server::{MAX_BODY, MAX_HEADERS, MAX_LINE};
use dcdb_http::{client, json::Json, HttpServer, Method, Response, Router};

fn demo_server() -> HttpServer {
    let mut r = Router::new();
    r.add(Method::Get, "/hello", |_| Response::text("world"));
    r.add(Method::Get, "/echo/:what", |req| {
        Response::json(&Json::obj([("echo", Json::str(req.param("what").unwrap()))]))
    });
    r.add(Method::Put, "/store", |req| {
        Response::json(&Json::obj([("bytes", Json::Num(req.body.len() as f64))]))
    });
    r.add(Method::Get, "/query", |req| {
        let a = req.query_param("a").unwrap_or("none").to_string();
        Response::text(a)
    });
    HttpServer::start("127.0.0.1:0".parse().unwrap(), r.into_handler()).expect("server start")
}

#[test]
fn get_text() {
    let srv = demo_server();
    let resp = client::get(srv.local_addr(), "/hello").unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "world");
}

#[test]
fn get_json_with_param() {
    let srv = demo_server();
    let resp = client::get(srv.local_addr(), "/echo/sensor42").unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    assert_eq!(j.get("echo").unwrap().as_str(), Some("sensor42"));
}

#[test]
fn put_with_body() {
    let srv = demo_server();
    let resp = client::put(srv.local_addr(), "/store", Some(b"0123456789")).unwrap();
    let j = Json::parse(&resp.text()).unwrap();
    assert_eq!(j.get("bytes").unwrap().as_f64(), Some(10.0));
}

#[test]
fn query_params_reach_handler() {
    let srv = demo_server();
    let resp = client::get(srv.local_addr(), "/query?a=hello%20there").unwrap();
    assert_eq!(resp.text(), "hello there");
}

#[test]
fn missing_route_is_404() {
    let srv = demo_server();
    let resp = client::get(srv.local_addr(), "/nope").unwrap();
    assert_eq!(resp.status, 404);
}

#[test]
fn wrong_method_is_405() {
    let srv = demo_server();
    let resp = client::put(srv.local_addr(), "/hello", None).unwrap();
    assert_eq!(resp.status, 405);
}

#[test]
fn concurrent_requests() {
    let srv = demo_server();
    let addr = srv.local_addr();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                for _ in 0..20 {
                    let resp = client::get(addr, &format!("/echo/t{i}")).unwrap();
                    assert_eq!(resp.status, 200);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// Send `raw` on a fresh connection and read until the server closes it;
/// a read timeout or a connection reset fails the test.
fn exchange(srv: &HttpServer, raw: &[u8]) -> String {
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    s.write_all(raw).unwrap();
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match s.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => got.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("no clean close: {e}; read so far {got:?}"),
        }
    }
    String::from_utf8_lossy(&got).into_owned()
}

fn assert_rejected(response: &str, why: &str) {
    assert!(response.starts_with("HTTP/1.1 400 "), "{why}: {response:?}");
    assert!(response.contains("Connection: close\r\n"), "{why}: {response:?}");
    assert_eq!(response.matches("HTTP/1.1").count(), 1, "{why}: one response, then close");
}

#[test]
fn over_long_request_line_is_400_and_closes() {
    let srv = demo_server();
    // several times the cap, so request bytes are still unread when the
    // server answers: the close must still be clean, not a reset
    let target = format!("/query?a={}", "x".repeat(4 * MAX_LINE));
    let raw = format!("GET {target} HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_rejected(&exchange(&srv, raw.as_bytes()), "request line");
}

#[test]
fn too_many_headers_is_400_and_closes() {
    let srv = demo_server();
    let mut raw = String::from("GET /hello HTTP/1.1\r\n");
    for i in 0..=MAX_HEADERS {
        raw.push_str(&format!("X-H{i}: v\r\n"));
    }
    raw.push_str("\r\n");
    assert_rejected(&exchange(&srv, raw.as_bytes()), "header count");
    // the limit itself is accepted
    let mut ok = String::from("GET /hello HTTP/1.1\r\nConnection: close\r\n");
    for i in 1..MAX_HEADERS {
        ok.push_str(&format!("X-H{i}: v\r\n"));
    }
    ok.push_str("\r\n");
    assert!(exchange(&srv, ok.as_bytes()).starts_with("HTTP/1.1 200 "));
}

#[test]
fn over_cap_body_is_400_not_a_second_request() {
    let srv = demo_server();
    // were the body cut at the cap, the bytes after it would be parsed as
    // the next request on the same connection
    let raw = format!("PUT /store HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
    assert_rejected(&exchange(&srv, raw.as_bytes()), "body length");
}

/// A one-shot fake server answering one request with `head` and then
/// `body_len` bytes, then closing.
fn fake_server(head: &'static str, body_len: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 2 {
            line.clear();
        }
        let stream = reader.get_mut();
        // the client may hang up mid-body: write errors are expected
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(&vec![b'x'; body_len]);
    });
    addr
}

#[test]
fn client_rejects_a_response_body_over_the_cap() {
    // announced: the client must not allocate what the header claims
    let addr = fake_server("HTTP/1.1 200 OK\r\nContent-Length: 100000000000000\r\n\r\n", 0);
    let err = client::get(addr, "/").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    // unannounced: the read to EOF stops one byte past the cap
    let addr = fake_server("HTTP/1.1 200 OK\r\n\r\n", MAX_BODY + 1);
    let err = client::get(addr, "/").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    // the cap itself is accepted
    let addr = fake_server("HTTP/1.1 200 OK\r\n\r\n", MAX_BODY);
    assert_eq!(client::get(addr, "/").unwrap().body.len(), MAX_BODY);
}

#[test]
fn shutdown_closes_an_idle_keep_alive_connection() {
    let mut srv = demo_server();
    let mut s = TcpStream::connect(srv.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET /hello HTTP/1.1\r\n\r\n").unwrap();
    let mut buf = [0u8; 4096];
    let n = s.read(&mut buf).unwrap();
    assert!(buf[..n].ends_with(b"keep-alive\r\n\r\nworld"), "{:?}", &buf[..n]);
    let start = Instant::now();
    srv.shutdown();
    assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF");
    let waited = start.elapsed();
    assert!(waited < Duration::from_millis(100), "EOF after {waited:?}");
}
