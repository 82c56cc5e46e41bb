//! Minimal HTTP/1.1 message framing over blocking sockets.
//!
//! Only what the ChatIYP API needs: request-line + headers + fixed
//! `Content-Length` bodies, with HTTP/1.1 keep-alive (up to
//! [`MAX_REQUESTS_PER_CONN`] requests per connection; pipelined bytes
//! survive between reads). Malformed input is answered with a 4xx rather
//! than a panic or a hang; oversized bodies are rejected early.

use bytes::BytesMut;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Maximum requests served over one keep-alive connection.
pub const MAX_REQUESTS_PER_CONN: usize = 100;

/// Maximum accepted request body (1 MiB): questions are short.
pub const MAX_BODY: usize = 1 << 20;

/// Maximum header section size.
pub const MAX_HEADER: usize = 16 << 10;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query string).
    pub target: String,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// True for HTTP/1.1 requests (keep-alive by default).
    pub http11: bool,
}

impl Request {
    /// The path component of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// A query-string parameter's value (`?trace=1` → `query_param("trace")
    /// == Some("1")`). A bare key with no `=` yields `Some("")`. No
    /// percent-decoding — the API's flags are plain tokens.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        let (_, query) = self.target.split_once('?')?;
        query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == name).then_some(v)
        })
    }

    /// A header value, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == lower)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Does the client want the connection kept open? HTTP/1.1 defaults
    /// to keep-alive unless `Connection: close`; HTTP/1.0 requires an
    /// explicit `Connection: keep-alive`.
    ///
    /// The header value is a comma-separated option list (RFC 7230
    /// §6.1) — `Connection: keep-alive, upgrade` must still parse as
    /// keep-alive — so each token is matched individually, with `close`
    /// winning over `keep-alive` if both somehow appear.
    pub fn wants_keep_alive(&self) -> bool {
        let Some(value) = self.header("connection") else {
            return self.http11;
        };
        let mut keep_alive = false;
        for token in value.split(',') {
            let token = token.trim();
            if token.eq_ignore_ascii_case("close") {
                return false;
            }
            if token.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
        keep_alive || self.http11
    }
}

/// Request-parsing errors, each mapping to a distinct connection outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line or headers → 400.
    BadRequest(String),
    /// The peer closed the connection cleanly before sending any byte of
    /// a request — the normal end of a keep-alive session. Not an error
    /// to answer: the server just closes its side.
    Closed,
    /// The peer closed the connection mid-request (EOF inside the
    /// request line, headers, or declared body) → 400. Distinct from
    /// [`HttpError::BadRequest`] so truncation is never mistaken for a
    /// complete-but-malformed message, and from [`HttpError::Closed`] so
    /// a half-request is never silently accepted.
    Truncated(String),
    /// Body larger than [`MAX_BODY`] → 413.
    TooLarge,
    /// Socket-level failure (peer vanished, read timeout, …).
    Io(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequest(m) => write!(f, "bad request: {m}"),
            HttpError::Closed => write!(f, "connection closed before a request"),
            HttpError::Truncated(m) => write!(f, "truncated request: {m}"),
            HttpError::TooLarge => write!(f, "request body too large"),
            HttpError::Io(m) => write!(f, "i/o error: {m}"),
        }
    }
}
impl std::error::Error for HttpError {}

/// Reads one request from a stream (convenience wrapper; keep-alive
/// serving uses [`read_request_buffered`] with a per-connection reader).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    read_request_buffered(&mut reader)
}

/// Reads one request from a per-connection buffered reader, so bytes of a
/// pipelined next request are not dropped between calls.
pub fn read_request_buffered<R: BufRead>(reader: &mut R) -> Result<Request, HttpError> {
    let mut line = String::new();
    let n = reader
        .read_line(&mut line)
        .map_err(|e| HttpError::Io(e.to_string()))?;
    if n == 0 {
        // EOF before any byte: the peer ended a keep-alive session.
        return Err(HttpError::Closed);
    }
    if !line.ends_with('\n') {
        return Err(HttpError::Truncated("EOF in request line".into()));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("missing request target".into()))?
        .to_string();
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1") {
        return Err(HttpError::BadRequest(format!(
            "unsupported protocol '{version}'"
        )));
    }
    let http11 = version == "HTTP/1.1";

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let mut hline = String::new();
        let n = reader
            .read_line(&mut hline)
            .map_err(|e| HttpError::Io(e.to_string()))?;
        // EOF before the blank line is a half-request, not an implicit
        // end-of-headers: treating it as complete would accept truncated
        // messages (and mis-frame any declared body).
        if n == 0 || !hline.ends_with('\n') {
            return Err(HttpError::Truncated("EOF in header section".into()));
        }
        header_bytes += hline.len();
        if header_bytes > MAX_HEADER {
            return Err(HttpError::BadRequest("header section too large".into()));
        }
        let trimmed = hline.trim_end();
        if trimmed.is_empty() {
            break;
        }
        match trimmed.split_once(':') {
            Some((name, value)) => {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()))
            }
            None => {
                return Err(HttpError::BadRequest(format!(
                    "malformed header '{trimmed}'"
                )))
            }
        }
    }

    // RFC 7230 §3.3.2: multiple Content-Length headers with differing
    // values make the message length ambiguous (request-smuggling class)
    // and must be rejected; identical duplicates may be collapsed.
    let mut content_length = 0usize;
    let mut seen_length: Option<&str> = None;
    for (_, v) in headers.iter().filter(|(n, _)| n == "content-length") {
        if let Some(prev) = seen_length {
            if prev != v {
                return Err(HttpError::BadRequest(
                    "conflicting content-length headers".into(),
                ));
            }
            continue;
        }
        content_length = v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("unparseable content-length".into()))?;
        seen_length = Some(v);
    }
    if content_length > MAX_BODY {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            HttpError::Truncated("EOF in request body".into())
        } else {
            HttpError::Io(e.to_string())
        }
    })?;
    Ok(Request {
        method,
        target,
        headers,
        body,
        http11,
    })
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Extra response headers (already-valid `name: value` pairs), e.g.
    /// `Retry-After` on a 503 while the snapshot is still loading.
    pub extra_headers: Vec<(&'static str, String)>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// Adds an extra response header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serializes the response to wire format with `Connection: close`.
    pub fn to_bytes(&self) -> BytesMut {
        self.to_bytes_conn(false)
    }

    /// Serializes the response, choosing the connection disposition.
    pub fn to_bytes_conn(&self, keep_alive: bool) -> BytesMut {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let mut out = BytesMut::with_capacity(self.body.len() + 128);
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {reason}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
                self.status,
                self.content_type,
                self.body.len()
            )
            .as_bytes(),
        );
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response to a stream with `Connection: close`.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        self.write_conn(stream, false)
    }

    /// Writes the response, choosing the connection disposition.
    pub fn write_conn(&self, stream: &mut TcpStream, keep_alive: bool) -> std::io::Result<()> {
        stream.write_all(&self.to_bytes_conn(keep_alive))?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn roundtrip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            s
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side);
        let _ = client.join().unwrap();
        req
    }

    /// Like [`roundtrip`], but the client drops its socket after writing
    /// so the server observes EOF at the end of `raw` — needed for the
    /// clean-close and truncation regressions ([`roundtrip`] keeps the
    /// client side open, so a short read would block instead).
    fn roundtrip_eof(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
            s.flush().unwrap();
            // Dropping `s` here closes the write side before the server
            // finishes reading.
        });
        let (mut server_side, _) = listener.accept().unwrap();
        let req = read_request(&mut server_side);
        client.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req = roundtrip(
            b"POST /ask HTTP/1.1\r\nHost: x\r\nContent-Length: 15\r\n\r\n{\"question\":1}x",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/ask");
        assert_eq!(req.body.len(), 15);
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /health?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path(), "/health");
        assert_eq!(req.target, "/health?verbose=1");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(
            roundtrip(b"NONSENSE\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST /ask HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(matches!(
            roundtrip(raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn rejects_bad_protocol() {
        assert!(matches!(
            roundtrip(b"GET / SPDY/9\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn clean_close_before_any_byte_is_closed_not_bad_request() {
        // End of a keep-alive session: previously surfaced as an "empty
        // request line" BadRequest, which the serve loop answered with a
        // spurious 400 into a closed socket.
        assert!(matches!(roundtrip_eof(b""), Err(HttpError::Closed)));
    }

    #[test]
    fn eof_in_request_line_is_truncated() {
        assert!(matches!(
            roundtrip_eof(b"GET /health"),
            Err(HttpError::Truncated(_))
        ));
    }

    #[test]
    fn eof_mid_headers_is_truncated_not_accepted() {
        // The key regression: EOF before the blank line used to read as
        // end-of-headers, silently accepting the half-request.
        assert!(matches!(
            roundtrip_eof(b"POST /ask HTTP/1.1\r\nHost: x\r\n"),
            Err(HttpError::Truncated(_))
        ));
    }

    #[test]
    fn eof_mid_body_is_truncated() {
        assert!(matches!(
            roundtrip_eof(b"POST /ask HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Truncated(_))
        ));
    }

    #[test]
    fn complete_request_still_parses_through_eof_helper() {
        let req = roundtrip_eof(b"GET /health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path(), "/health");
    }

    #[test]
    fn conflicting_content_length_headers_rejected() {
        let err =
            roundtrip(b"POST /ask HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nbody!")
                .unwrap_err();
        assert!(
            matches!(&err, HttpError::BadRequest(m) if m.contains("conflicting")),
            "{err:?}"
        );
    }

    #[test]
    fn identical_duplicate_content_length_headers_accepted() {
        let req =
            roundtrip(b"POST /ask HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody")
                .unwrap();
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn keep_alive_parses_connection_token_lists() {
        let req = |http11: bool, conn: Option<&str>| Request {
            method: "GET".into(),
            target: "/".into(),
            headers: conn
                .map(|v| vec![("connection".to_string(), v.to_string())])
                .unwrap_or_default(),
            body: Vec::new(),
            http11,
        };
        // HTTP/1.0 + multi-token list containing keep-alive.
        assert!(req(false, Some("keep-alive, upgrade")).wants_keep_alive());
        // close anywhere in the list wins, case-insensitively.
        assert!(!req(true, Some("Upgrade, Close")).wants_keep_alive());
        assert!(!req(true, Some("close")).wants_keep_alive());
        // Defaults: 1.1 keep-alive, 1.0 close.
        assert!(req(true, None).wants_keep_alive());
        assert!(!req(false, None).wants_keep_alive());
        // Unrelated tokens fall back to the version default.
        assert!(req(true, Some("upgrade")).wants_keep_alive());
        assert!(!req(false, Some("upgrade")).wants_keep_alive());
    }

    #[test]
    fn extra_headers_sit_before_the_blank_line() {
        let bytes = Response::text(503, "loading")
            .with_header("retry-after", "1")
            .to_bytes();
        let s = String::from_utf8_lossy(&bytes);
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        let (head, body) = s.split_once("\r\n\r\n").unwrap();
        assert!(head.contains("retry-after: 1"));
        assert_eq!(body, "loading");
    }

    #[test]
    fn response_wire_format() {
        let bytes = Response::json(200, br#"{"ok":true}"#.to_vec()).to_bytes();
        let s = String::from_utf8_lossy(&bytes);
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("content-length: 11"));
        assert!(s.contains("application/json"));
        assert!(s.ends_with(r#"{"ok":true}"#));
        // The two statuses the admission path exists to send.
        for (status, line) in [
            (429, "HTTP/1.1 429 Too Many Requests\r\n"),
            (504, "HTTP/1.1 504 Gateway Timeout\r\n"),
        ] {
            let bytes = Response::json(status, Vec::new()).to_bytes();
            assert!(bytes.starts_with(line.as_bytes()), "{status}");
        }
    }
}
