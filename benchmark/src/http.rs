//! A minimal keep-alive HTTP/1.1 client: one connection, one request at a
//! time, `GET` only.  The workspace's own client closes the connection after
//! every request, which would time connection set-up instead of the query.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response body larger than this is not one the REST API sends.
const MAX_BODY: usize = 64 << 20;
/// Nor is a header block larger than this.
const MAX_HEAD: usize = 64 << 10;

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    stream: TcpStream,
    /// Bytes read past the end of the previous response.
    buf: Vec<u8>,
    request: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    /// Connect; a request that takes longer than `timeout` fails.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Client { stream, buf: Vec::with_capacity(16 << 10), request: Vec::with_capacity(512) })
    }

    /// `GET path_and_query`, returning once the last body byte has arrived.
    pub fn get(&mut self, path_and_query: &str) -> io::Result<Response> {
        self.request.clear();
        self.request.extend_from_slice(b"GET ");
        self.request.extend_from_slice(path_and_query.as_bytes());
        self.request
            .extend_from_slice(b" HTTP/1.1\r\nHost: dcdb\r\nConnection: keep-alive\r\n\r\n");
        self.stream.write_all(&self.request)?;

        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            if self.buf.len() > MAX_HEAD {
                return Err(bad("response head too large"));
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len: usize = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse().ok())
            .ok_or_else(|| bad("no content-length"))?;
        if len > MAX_BODY {
            return Err(bad("response body too large"));
        }
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Response { status, body })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn two_requests_share_one_connection_and_split_reads_reassemble() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut reader = io::BufReader::new(s.try_clone().unwrap());
            let mut seen = Vec::new();
            for body in ["first", "second-longer"] {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                seen.push(line.trim().to_string());
                while reader.read_line(&mut line).unwrap() > 2 {
                    line.clear();
                }
                // head and body in separate writes, as the real server does
                write!(s, "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len()).unwrap();
                s.flush().unwrap();
                std::thread::sleep(Duration::from_millis(5));
                s.write_all(body.as_bytes()).unwrap();
            }
            seen
        });
        let mut c = Client::connect(addr, Duration::from_secs(5)).unwrap();
        let a = c.get("/a?x=1").unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, b"first".as_slice()));
        let b = c.get("/b").unwrap();
        assert_eq!(b.body, b"second-longer");
        let seen = server.join().unwrap();
        assert_eq!(seen, vec!["GET /a?x=1 HTTP/1.1", "GET /b HTTP/1.1"]);
    }
}
