//! A blocking HTTP/1.1 server.
//!
//! Parses request line, headers, query string and body (Content-Length)
//! and serves keep-alive connections.  This carries DCDB's Pusher/Collect
//! Agent REST endpoints.
//!
//! Connections run on [`serve`]: one thread per connection, blocked in
//! `read` while idle and stopped by a socket shutdown, so an idle server
//! wakes no thread.  The 10 s idle read timeout is a deadline for silent
//! clients, not a poll.  A request line or header over [`MAX_LINE`] bytes,
//! more than [`MAX_HEADERS`] headers, or a body over [`MAX_BODY`] bytes is
//! answered `400` and the connection is closed by a lingering close: the
//! server half-closes, then drains what the client still sends (at most
//! `LINGER_BYTES`, within the read deadline), so unread request bytes do
//! not turn the close into a reset that can destroy the `400`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use crate::json::Json;
use crate::serve::{serve, Server};

/// Longest request line or header line accepted, line ending included.
pub const MAX_LINE: usize = 8 * 1024;
/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 100;
/// Largest request body accepted.
pub const MAX_BODY: usize = 16 * 1024 * 1024;
/// Most bytes drained from a rejected request before its connection closes.
const LINGER_BYTES: u64 = 64 * 1024;

/// Request methods supported by the REST APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Retrieve data.
    Get,
    /// Change state (start/stop/reload plugins).
    Put,
    /// Create/trigger.
    Post,
    /// Remove.
    Delete,
}

impl Method {
    fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "PUT" => Method::Put,
            "POST" => Method::Post,
            "DELETE" => Method::Delete,
            _ => return None,
        })
    }
}

/// Status codes used by the APIs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatusCode {
    /// 200
    Ok,
    /// 204
    NoContent,
    /// 400
    BadRequest,
    /// 404
    NotFound,
    /// 405
    MethodNotAllowed,
    /// 500
    InternalError,
}

impl StatusCode {
    fn line(&self) -> &'static str {
        match self {
            StatusCode::Ok => "200 OK",
            StatusCode::NoContent => "204 No Content",
            StatusCode::BadRequest => "400 Bad Request",
            StatusCode::NotFound => "404 Not Found",
            StatusCode::MethodNotAllowed => "405 Method Not Allowed",
            StatusCode::InternalError => "500 Internal Server Error",
        }
    }

    /// Numeric code.
    pub fn code(&self) -> u16 {
        match self {
            StatusCode::Ok => 200,
            StatusCode::NoContent => 204,
            StatusCode::BadRequest => 400,
            StatusCode::NotFound => 404,
            StatusCode::MethodNotAllowed => 405,
            StatusCode::InternalError => 500,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// HTTP method.
    pub method: Method,
    /// Decoded path without the query string.
    pub path: String,
    /// Query-string parameters.
    pub query: HashMap<String, String>,
    /// Path parameters captured by the router (`:name` segments).
    pub params: HashMap<String, String>,
    /// Headers, lower-cased keys.
    pub headers: HashMap<String, String>,
    /// Request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Query parameter accessor.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.get(key).map(String::as_str)
    }

    /// Path parameter accessor.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params.get(key).map(String::as_str)
    }

    /// Query parameter parsed to any `FromStr` type; `default` on absence
    /// or parse failure.  The common shape of the REST endpoints'
    /// `start`/`end`/`maxDataPoints`-style numeric parameters.
    pub fn query_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.query_param(key).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: StatusCode,
    /// Content type header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(value: &Json) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: "application/json",
            body: value.to_string_compact().into_bytes(),
        }
    }

    /// 200 with a plain-text body.
    pub fn text(s: impl Into<String>) -> Response {
        Response { status: StatusCode::Ok, content_type: "text/plain", body: s.into().into_bytes() }
    }

    /// 200 with the Prometheus text exposition format content type
    /// (`text/plain; version=0.0.4`, what scrapers negotiate on).
    pub fn prometheus(s: impl Into<String>) -> Response {
        Response {
            status: StatusCode::Ok,
            content_type: PROMETHEUS_CONTENT_TYPE,
            body: s.into().into_bytes(),
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub fn error(status: StatusCode, message: &str) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Json::obj([("error", Json::str(message))]).to_string_compact().into_bytes(),
        }
    }

    /// 204.
    pub fn no_content() -> Response {
        Response { status: StatusCode::NoContent, content_type: "text/plain", body: Vec::new() }
    }
}

/// The Prometheus text exposition format `Content-Type` (format
/// version 0.0.4).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Request handler signature.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server; dropping it stops the listener and closes every
/// connection.
pub struct HttpServer {
    server: Server,
}

impl HttpServer {
    /// Start serving `handler` on `bind` (use port 0 for ephemeral).
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(bind: SocketAddr, handler: Handler) -> io::Result<HttpServer> {
        let server = serve(TcpListener::bind(bind)?, "http", move |stream| {
            let _ = serve_connection(stream, &handler);
        })?;
        Ok(HttpServer { server })
    }

    /// Bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stop accepting connections and close the open ones.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

fn serve_connection(stream: TcpStream, handler: &Handler) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream);
    // head and body of each response, written with one `write_all`
    let mut out = Vec::new();
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()), // connection closed
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let resp = Response::error(StatusCode::BadRequest, &e.to_string());
                write_response(reader.get_mut(), &mut out, &resp, false)?;
                reader.get_ref().shutdown(Shutdown::Write)?;
                // a read error (the deadline) ends the drain like EOF does
                let _ = io::copy(&mut reader.take(LINGER_BYTES), &mut io::sink());
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let keep_alive =
            req.headers.get("connection").map(|v| !v.eq_ignore_ascii_case("close")).unwrap_or(true);
        write_response(reader.get_mut(), &mut out, &handler(&req), keep_alive)?;
        if !keep_alive {
            return Ok(());
        }
    }
}

/// Percent-decode a URL component.
pub fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() + 1 => {
                if let Some(hex) = bytes.get(i + 1..i + 3) {
                    if let Ok(v) = u8::from_str_radix(std::str::from_utf8(hex).unwrap_or("zz"), 16)
                    {
                        out.push(v);
                        i += 3;
                        continue;
                    }
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parse the query string into a map.
pub fn parse_query(q: &str) -> HashMap<String, String> {
    let mut map = HashMap::new();
    for pair in q.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        map.insert(url_decode(k), url_decode(v));
    }
    map
}

fn bad_request(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// `read_line` that fails with `InvalidData` past [`MAX_LINE`] bytes.
fn read_line_capped<R: BufRead>(reader: &mut R, line: &mut String) -> io::Result<usize> {
    let n = reader.take(MAX_LINE as u64 + 1).read_line(line)?;
    if n > MAX_LINE {
        return Err(bad_request("line too long"));
    }
    Ok(n)
}

/// A start line and the header lines after it, keys lower-cased; `None`
/// when the stream ends first.  Past [`MAX_LINE`] bytes in a line or
/// [`MAX_HEADERS`] headers, `InvalidData`.
pub(crate) fn read_head<R: BufRead>(
    reader: &mut R,
) -> io::Result<Option<(String, HashMap<String, String>)>> {
    let mut start = String::new();
    if read_line_capped(reader, &mut start)? == 0 {
        return Ok(None);
    }
    let mut headers = HashMap::new();
    for n in 0.. {
        let mut h = String::new();
        read_line_capped(reader, &mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if n == MAX_HEADERS {
            return Err(bad_request("too many headers"));
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
    }
    Ok(Some((start, headers)))
}

fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    let Some((line, headers)) = read_head(reader)? else { return Ok(None) };
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let Some(method) = Method::parse(method) else { return Ok(None) };
    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let path = url_decode(raw_path);
    let query = parse_query(raw_query);
    let len: usize = headers.get("content-length").and_then(|v| v.parse().ok()).unwrap_or(0);
    if len > MAX_BODY {
        return Err(bad_request("body too large"));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Request { method, path, query, params: HashMap::new(), headers, body }))
}

/// Write `resp` with one `write_all`, staging head and body in `out`.
fn write_response<W: Write>(
    w: &mut W,
    out: &mut Vec<u8>,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    out.clear();
    write!(
        out,
        "HTTP/1.1 {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        resp.status.line(),
        resp.content_type,
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    )?;
    out.extend_from_slice(&resp.body);
    w.write_all(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn url_decoding() {
        assert_eq!(url_decode("a%20b+c"), "a b c");
        assert_eq!(url_decode("%2Fpath%2Fx"), "/path/x");
        assert_eq!(url_decode("plain"), "plain");
        assert_eq!(url_decode("bad%zz"), "bad%zz");
        assert_eq!(url_decode("%"), "%");
    }

    #[test]
    fn query_parsing() {
        let q = parse_query("a=1&b=hello%20world&flag&empty=");
        assert_eq!(q["a"], "1");
        assert_eq!(q["b"], "hello world");
        assert_eq!(q["flag"], "");
        assert_eq!(q["empty"], "");
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn response_constructors() {
        let r = Response::json(&Json::obj([("x", Json::Num(1.0))]));
        assert_eq!(r.status, StatusCode::Ok);
        assert_eq!(r.body, br#"{"x":1}"#);
        let e = Response::error(StatusCode::NotFound, "no such sensor");
        assert_eq!(e.status.code(), 404);
        assert!(String::from_utf8_lossy(&e.body).contains("no such sensor"));
        assert!(Response::no_content().body.is_empty());
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let handler: Handler = Arc::new(|_| Response::text("ok"));
        let server = HttpServer::start("127.0.0.1:0".parse().unwrap(), handler).unwrap();
        for _ in 0..500 {
            let mut s = TcpStream::connect(server.local_addr()).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
            let mut got = Vec::new();
            s.read_to_end(&mut got).unwrap();
            assert!(got.ends_with(b"close\r\n\r\nok"));
        }
        // the registry's clone is each socket's last descriptor: EOF came
        // after its entry was removed
        assert_eq!(server.server.connections(), 0);
    }

    #[test]
    fn read_request_parses_everything() {
        let raw =
            "GET /sensors/cpu0?start=5&end=9 HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc";
        let mut reader = std::io::BufReader::new(raw.as_bytes());
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/sensors/cpu0");
        assert_eq!(req.query_param("start"), Some("5"));
        assert_eq!(req.query_param("end"), Some("9"));
        assert_eq!(req.headers["host"], "x");
        assert_eq!(req.body, b"abc");
    }
}
