//! A tiny blocking HTTP client.
//!
//! Used by the Pusher's REST plugin (which scrapes RESTful data sources,
//! paper §3.1) and by integration tests against the REST APIs.

use std::collections::HashMap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::server::{read_head, MAX_BODY};

/// A parsed HTTP response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code (e.g. 200).
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: HashMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issue a GET request to `addr` with `path` (must start with `/`).
///
/// # Errors
/// Propagates socket errors; malformed responses and bodies over
/// [`MAX_BODY`] bytes yield `InvalidData`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, None)
}

/// Issue a PUT request with an optional body.
///
/// # Errors
/// Propagates socket errors.
pub fn put(addr: SocketAddr, path: &str, body: Option<&[u8]>) -> std::io::Result<ClientResponse> {
    request(addr, "PUT", path, body)
}

/// Issue a POST request with an optional body.
///
/// # Errors
/// Propagates socket errors.
pub fn post(addr: SocketAddr, path: &str, body: Option<&[u8]>) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, body)
}

fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&[u8]>,
) -> std::io::Result<ClientResponse> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let body = body.unwrap_or(&[]);
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body)?;
    writer.flush()?;

    let mut reader = BufReader::new(stream);
    let bad_status = || std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line");
    let (status_line, headers) = read_head(&mut reader)?.ok_or_else(bad_status)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad_status)?;
    // the body is sized by the server: cap it like the server caps ours
    let too_large = || std::io::Error::new(std::io::ErrorKind::InvalidData, "body too large");
    let mut resp_body = Vec::new();
    if let Some(len) = headers.get("content-length").and_then(|v| v.parse::<usize>().ok()) {
        if len > MAX_BODY {
            return Err(too_large());
        }
        resp_body.resize(len, 0);
        reader.read_exact(&mut resp_body)?;
    } else if reader.take(MAX_BODY as u64 + 1).read_to_end(&mut resp_body)? > MAX_BODY {
        return Err(too_large());
    }
    Ok(ClientResponse { status, headers, body: resp_body })
}
