//! A keep-alive HTTP/1.1 client that knows which of its requests paid for
//! a connection.
//!
//! The server closes a connection after 100 requests and says so with
//! `connection: close` on the last response; the client drops its socket
//! on that header and the next request connects afresh. A request that
//! opened its connection is `fresh` and its latency includes the connect
//! — the two populations differ by two orders of magnitude, so they are
//! never mixed in one percentile.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long one response may take before the request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// One completed exchange. The body is left in the caller's buffer.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// This request opened the connection it travelled on.
    pub fresh: bool,
    /// Just before the connect (fresh) or the first request byte.
    pub start: Instant,
    /// Just after the last body byte was read.
    pub end: Instant,
}

impl Reply {
    /// Client-observed latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        (self.end - self.start).as_nanos() as u64
    }
}

/// One client connection slot, reconnecting on demand.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    line: String,
}

impl Conn {
    /// A slot for `addr`; connects on the first request.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            stream: None,
            line: String::new(),
        }
    }

    /// Drops the socket, so the next request is `fresh`.
    pub fn close(&mut self) {
        self.stream = None;
    }

    /// Sends pre-framed request bytes and reads the whole response body
    /// into `body` (cleared first). Any I/O error drops the connection.
    pub fn send(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<Reply> {
        let start = Instant::now();
        let fresh = self.stream.is_none();
        let result = self.exchange(request, body);
        let end = Instant::now();
        match result {
            Ok((status, keep_alive)) => {
                if !keep_alive {
                    self.stream = None;
                }
                Ok(Reply {
                    status,
                    fresh,
                    start,
                    end,
                })
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, request: &[u8], body: &mut Vec<u8>) -> io::Result<(u16, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        reader.get_mut().write_all(request)?;

        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        self.line.clear();
        if reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before the status line",
            ));
        }
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut content_length = 0usize;
        let mut keep_alive = true;
        loop {
            self.line.clear();
            if reader.read_line(&mut self.line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed inside the headers",
                ));
            }
            let header = self.line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
        body.clear();
        body.resize(content_length, 0);
        reader.read_exact(body)?;
        Ok((status, keep_alive))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stub that answers every request with its own 1-based index on the
    /// connection and closes after `cap` requests, as the server does.
    fn stub(cap: usize, connections: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream);
                for served in 1..=cap {
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap() == 0 {
                            return;
                        }
                        if line == "\r\n" {
                            break;
                        }
                    }
                    let body = served.to_string();
                    let disposition = if served == cap { "close" } else { "keep-alive" };
                    write!(
                        reader.get_mut(),
                        "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: {disposition}\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn reuses_the_connection_and_reconnects_at_the_cap() {
        let (addr, server) = stub(100, 2);
        let mut conn = Conn::new(addr);
        let mut body = Vec::new();
        let request = b"GET / HTTP/1.1\r\nHost: t\r\n\r\n";
        let mut fresh = Vec::new();
        for i in 0..150 {
            let reply = conn.send(request, &mut body).expect("exchange");
            assert_eq!(reply.status, 200);
            assert!(reply.end >= reply.start);
            // The stub counts per connection: a reused connection keeps
            // counting, a new one restarts at 1.
            let served: usize = std::str::from_utf8(&body).unwrap().parse().unwrap();
            assert_eq!(served, i % 100 + 1, "request {i}");
            if reply.fresh {
                fresh.push(i);
            }
        }
        assert_eq!(fresh, vec![0, 100], "one connect per 100 requests");
        drop(conn);
        server.join().unwrap();
    }

    #[test]
    fn a_vanished_server_is_an_error_not_a_hang() {
        let (addr, server) = stub(1, 1);
        let mut conn = Conn::new(addr);
        let mut body = Vec::new();
        let request = b"GET / HTTP/1.1\r\nHost: t\r\n\r\n";
        assert!(conn.send(request, &mut body).is_ok());
        server.join().unwrap();
        // Listener and connection are gone: connect is refused.
        assert!(conn.send(request, &mut body).is_err());
    }
}
