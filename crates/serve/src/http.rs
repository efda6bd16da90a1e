//! Hand-rolled HTTP/1.1: request reading and response writing over a
//! [`TcpStream`].
//!
//! Scope is exactly what the service needs — `Content-Length` bodies,
//! keep-alive, chunked transfer encoding for streamed responses
//! ([`ChunkedWriter`]), and hard limits (header size, body size, read
//! timeout) so a malformed or hostile peer can never wedge or panic a
//! worker. No TLS, no HTTP/2: callers that need those put a real proxy
//! in front.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Cap on the request line + headers (pre-body) in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …) as sent.
    pub method: String,
    /// Request target, query string stripped.
    pub path: String,
    /// The raw query string (after `?`, without it); empty when the
    /// target has none.
    pub query: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// True for an `HTTP/1.0` request — no chunked transfer encoding,
    /// and keep-alive only when asked for explicitly.
    pub http1_0: bool,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client asked to keep the connection open
    /// (HTTP/1.1 default unless `Connection: close`; HTTP/1.0 only
    /// with an explicit `Connection: keep-alive`).
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        if self.http1_0 {
            self.header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        } else {
            !self
                .header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        }
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Peer closed the connection before sending anything (normal end
    /// of a keep-alive session).
    Closed,
    /// The socket read timed out mid-request or while idle.
    TimedOut,
    /// The whole-request read deadline lapsed: the peer kept the
    /// request alive by trickling bytes but never finished it → 408.
    ReadDeadline,
    /// Declared `Content-Length` exceeds the server's limit → 413.
    BodyTooLarge {
        /// Declared length.
        declared: usize,
        /// Server limit.
        limit: usize,
    },
    /// Anything unparsable → 400.
    Malformed(&'static str),
    /// Transport failure.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> RequestError {
        match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RequestError::TimedOut,
            _ => RequestError::Io(e),
        }
    }
}

/// Read one request from `stream`, enforcing [`MAX_HEADER_BYTES`] and
/// `max_body`.
///
/// # Errors
///
/// See [`RequestError`]; `Closed` is the clean keep-alive ending.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, RequestError> {
    read_request_deadline(stream, max_body, None, Duration::ZERO)
}

/// How often a read on a server connection wakes up: the read timeout
/// a server sets on each accepted socket (see [`poll_slice`]). The
/// connection's idle timeout and the request deadline are counted out
/// in these slices by [`bounded_read`] and [`await_request`], so the
/// socket's timeout is set once per connection, not per request.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The socket read timeout for a server connection whose idle timeout
/// is `idle`: 50 ms, or `idle` when that is shorter.
#[must_use]
pub fn poll_slice(idle: Duration) -> Duration {
    IDLE_POLL.min(idle).max(Duration::from_millis(1))
}

/// One socket read that waits at most `idle` for data and gives up
/// once `deadline` has passed, retrying each timed-out socket read
/// (one [`poll_slice`]) until one of the two lapses. A client trickling
/// one byte per idle interval still cannot stretch a single request
/// past `deadline`. With `idle` unset the socket's own timeout governs.
fn bounded_read(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Option<Instant>,
    idle: Option<Duration>,
) -> Result<usize, RequestError> {
    let quiet_until = idle.map(|i| Instant::now() + i);
    loop {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(RequestError::ReadDeadline);
        }
        match stream.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e) => match RequestError::from(e) {
                RequestError::TimedOut => {
                    if quiet_until.is_none_or(|t| Instant::now() >= t) {
                        return Err(RequestError::TimedOut);
                    }
                }
                other => return Err(other),
            },
        }
    }
}

/// Wait on a keep-alive connection, between two requests, for the
/// first byte of the next one, for at most `idle`. Returns `false`
/// when the connection should close without a response: the peer
/// closed it, stayed quiet for `idle`, or sent nothing within the poll
/// slice in which `stop` was seen raised. Bytes that arrived are
/// served, so a draining server completes every request that reached
/// it but no longer waits out idle clients. Call it only after the
/// connection has served a request: a connection's first request is
/// awaited by [`read_request_deadline`] alone, so one accepted before
/// a stop is answered even if its bytes arrive after it.
///
/// The socket's read timeout must be the [`poll_slice`]; on the fast
/// path, a request already waiting, this is one `peek`.
pub fn await_request(stream: &TcpStream, stop: &AtomicBool, idle: Duration) -> bool {
    let until = Instant::now() + idle;
    let mut byte = [0u8; 1];
    loop {
        match stream.peek(&mut byte) {
            Ok(n) => return n > 0,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return false,
        }
        if stop.load(Ordering::SeqCst) || Instant::now() >= until {
            return false;
        }
    }
}

/// Like [`read_request`], but each read waits at most `idle` for data
/// (`None`: the socket read timeout alone), and `read_deadline` is
/// enforced as a whole-request budget measured from the first request
/// byte. `Duration::ZERO` disables the deadline. A server passes its
/// idle timeout here and sets the socket's to the [`poll_slice`].
///
/// # Errors
///
/// See [`RequestError`]; a lapsed budget is `ReadDeadline` → 408.
pub fn read_request_deadline(
    stream: &mut TcpStream,
    max_body: usize,
    idle: Option<Duration>,
    read_deadline: Duration,
) -> Result<Request, RequestError> {
    let mut deadline: Option<Instant> = None;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Read until the blank line ending the header block.
    let header_end = loop {
        if let Some(pos) = find_crlfcrlf(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(RequestError::Malformed("header block too large"));
        }
        let n = bounded_read(stream, &mut chunk, deadline, idle)?;
        if n > 0 && deadline.is_none() && !read_deadline.is_zero() {
            // The clock starts at the first request byte, not at
            // accept time: idle keep-alive connections are cheap.
            deadline = Some(Instant::now() + read_deadline);
        }
        if n == 0 {
            return if buf.is_empty() {
                Err(RequestError::Closed)
            } else {
                Err(RequestError::Malformed("connection closed mid-request"))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| RequestError::Malformed("non-UTF-8 header block"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(RequestError::Malformed("bad request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RequestError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        headers,
        http1_0: version == "HTTP/1.0",
        body: Vec::new(),
    };

    let content_length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed("bad Content-Length"))?,
    };
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge {
            declared: content_length,
            limit: max_body,
        });
    }

    // Body bytes already read past the header block, then the rest.
    let mut body = buf[header_end + 4..].to_vec();
    if body.len() > content_length {
        // Pipelined extra bytes are not supported; treat as malformed
        // rather than silently desyncing the connection.
        return Err(RequestError::Malformed("body longer than Content-Length"));
    }
    while body.len() < content_length {
        let n = bounded_read(stream, &mut chunk, deadline, idle)?;
        if n == 0 {
            return Err(RequestError::Malformed("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
        if body.len() > content_length {
            return Err(RequestError::Malformed("body longer than Content-Length"));
        }
    }
    Ok(Request { body, ..request })
}

fn find_crlfcrlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response to write.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — e.g. `Retry-After`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// A JSON error envelope: `{"error": "..."}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(
            status,
            format!("{{\"error\": {}}}\n", dsp_driver::json::escape(message)),
        )
    }

    /// Add a header.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }

    /// Serialize and write this response.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn write_to(&self, stream: &mut TcpStream, keep_alive: bool) -> io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A streamed response body using `Transfer-Encoding: chunked`.
///
/// [`ChunkedWriter::start`] writes the status line and headers; each
/// [`chunk`](ChunkedWriter::chunk) ships one piece of the body as it
/// becomes available; [`finish`](ChunkedWriter::finish) terminates the
/// stream. Only meaningful for HTTP/1.1 peers — HTTP/1.0 callers must
/// buffer instead.
#[derive(Debug)]
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the response head and return a writer for the body.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
        keep_alive: bool,
        extra_headers: &[(&str, &str)],
    ) -> io::Result<ChunkedWriter<'a>> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n",
            status,
            reason(status),
            content_type,
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        Ok(ChunkedWriter { stream })
    }

    /// Ship one body piece. Empty input is skipped — a zero-length
    /// chunk would terminate the stream on the wire.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        // Flush per chunk: the point of streaming is that the peer sees
        // each result as it completes, not when the OS buffer fills.
        self.stream.flush()
    }

    /// Terminate the stream with the zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

/// Reason phrase for the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lookup_is_case_normalized() {
        let r = Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            headers: vec![("content-length".into(), "3".into())],
            http1_0: false,
            body: Vec::new(),
        };
        assert_eq!(r.header("content-length"), Some("3"));
        assert_eq!(r.header("x-missing"), None);
        assert!(r.keep_alive());
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let r = Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            headers: vec![("connection".into(), "Close".into())],
            http1_0: false,
            body: Vec::new(),
        };
        assert!(!r.keep_alive());
    }

    #[test]
    fn http10_defaults_to_close_unless_asked() {
        let old = Request {
            method: "GET".into(),
            path: "/".into(),
            query: String::new(),
            headers: Vec::new(),
            http1_0: true,
            body: Vec::new(),
        };
        assert!(!old.keep_alive());
        let asked = Request {
            headers: vec![("connection".into(), "Keep-Alive".into())],
            ..old
        };
        assert!(asked.keep_alive());
    }

    #[test]
    fn reason_phrases_cover_emitted_codes() {
        for code in [200, 400, 404, 405, 408, 413, 500, 503, 504] {
            assert_ne!(reason(code), "Unknown", "missing phrase for {code}");
        }
    }
}
