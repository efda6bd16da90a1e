//! A minimal blocking HTTP/1.1 client over one keep-alive connection —
//! enough for the router, `dsp-perf` and the tests to talk to a server
//! without any external dependency.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Per-phase timeouts for a phased connection ([`ClientConn::connect_phased`]):
/// each network phase gets its own budget, *distinct from* the caller's
/// whole-request deadline. A slow-loris upstream that trickles one byte
/// per second defeats a plain socket read timeout (every read makes
/// progress); phased reads also enforce the overall deadline across
/// reads, so the exchange is bounded no matter how the bytes arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTimeouts {
    /// TCP connect budget.
    pub connect: Duration,
    /// From request written until the first response byte.
    pub first_byte: Duration,
    /// Longest allowed gap between response bytes after the first.
    pub inter_byte: Duration,
}

/// Coarse classes of the transport failures [`ClientConn`] reports; the
/// chaos tests hold each fault scenario to the classes it may produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// Peer reset, aborted, or closed before a response head.
    Reset,
    /// A read or connect timed out (including phased deadlines).
    Timeout,
    /// The body or chunk stream ended short of its framing.
    ShortBody,
    /// Anything else (malformed head, corrupted framing, ...).
    Other,
}

impl FaultClass {
    /// Stable lowercase label for summaries and metrics.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultClass::Reset => "reset",
            FaultClass::Timeout => "timeout",
            FaultClass::ShortBody => "short-body",
            FaultClass::Other => "other",
        }
    }
}

/// Classify a transport error from [`ClientConn`] into a [`FaultClass`].
#[must_use]
pub fn classify_error(e: &io::Error) -> FaultClass {
    match e.kind() {
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => FaultClass::Timeout,
        io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::ConnectionRefused
        | io::ErrorKind::BrokenPipe => FaultClass::Reset,
        io::ErrorKind::UnexpectedEof => {
            let msg = e.to_string();
            if msg.contains("mid-body") || msg.contains("mid-chunk") {
                FaultClass::ShortBody
            } else {
                // EOF before the response head: indistinguishable from
                // a polite reset at this layer.
                FaultClass::Reset
            }
        }
        _ => FaultClass::Other,
    }
}

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// How many chunks carried the body: 0 for a plain
    /// `Content-Length` response, the on-wire chunk count for a
    /// `Transfer-Encoding: chunked` one.
    pub chunks: usize,
    /// The body, with any chunked framing already removed.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of header `name` (lowercase).
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// An [`ClientConn::exchange`] failure, annotated with whether any
/// response byte had already arrived. A proxy may safely replay the
/// request elsewhere only while `response_started` is false: once the
/// upstream began answering, the request may have executed and a
/// replay could double-apply it.
#[derive(Debug)]
pub struct ExchangeError {
    /// The underlying transport error.
    pub error: io::Error,
    /// True when at least one response byte was read before failing.
    pub response_started: bool,
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.response_started {
            write!(f, "{} (after response started)", self.error)
        } else {
            write!(f, "{} (before any response byte)", self.error)
        }
    }
}

/// A persistent connection to one server.
pub struct ClientConn {
    stream: TcpStream,
    /// Per-phase budgets; `None` keeps the legacy single-read-timeout
    /// behavior of [`ClientConn::connect`].
    phase: Option<PhaseTimeouts>,
    /// Whole-response budget enforced across reads in phased mode.
    overall: Duration,
    /// Deadline of the response currently being read (phased mode).
    deadline: Option<Instant>,
    /// Whether the current response has produced its first byte.
    got_byte: bool,
}

impl ClientConn {
    /// Connect, with a read timeout so a stuck server cannot hang the
    /// caller forever.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A, read_timeout: Duration) -> io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(read_timeout))?;
        stream.set_nodelay(true)?;
        Ok(ClientConn {
            stream,
            phase: None,
            overall: read_timeout,
            deadline: None,
            got_byte: false,
        })
    }

    /// Connect with per-phase timeouts: `phase.connect` bounds the TCP
    /// dial, and every response read is capped by the matching phase
    /// budget (`first_byte` / `inter_byte`) *and* by `overall`, the
    /// whole-response deadline measured from when the response read
    /// starts. A trickling upstream that keeps each gap short still
    /// cannot stretch one exchange past `overall`.
    ///
    /// # Errors
    ///
    /// Propagates connect failures; all resolved addresses are tried.
    pub fn connect_phased<A: ToSocketAddrs>(
        addr: A,
        overall: Duration,
        phase: PhaseTimeouts,
    ) -> io::Result<ClientConn> {
        let mut last = io::Error::new(io::ErrorKind::NotFound, "address did not resolve");
        let mut found = None;
        for sa in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, phase.connect) {
                Ok(s) => {
                    found = Some(s);
                    break;
                }
                Err(e) => last = e,
            }
        }
        let Some(stream) = found else {
            return Err(last);
        };
        stream.set_read_timeout(Some(phase.first_byte.min(overall)))?;
        stream.set_nodelay(true)?;
        Ok(ClientConn {
            stream,
            phase: Some(phase),
            overall,
            deadline: None,
            got_byte: false,
        })
    }

    /// One bounded read: in phased mode, pick the socket timeout from
    /// the current phase (first-byte vs inter-byte) clamped to what is
    /// left of the whole-response deadline.
    fn read_some(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(phase) = self.phase {
            let cap = if self.got_byte {
                phase.inter_byte
            } else {
                phase.first_byte
            };
            let timeout = match self.deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "whole-response deadline exceeded",
                        ));
                    }
                    cap.min(left)
                }
                None => cap,
            };
            let _ = self
                .stream
                .set_read_timeout(Some(timeout.max(Duration::from_millis(1))));
        }
        let n = self.stream.read(buf)?;
        if n > 0 {
            self.got_byte = true;
        }
        Ok(n)
    }

    /// Send one request and read the response. `body = None` sends no
    /// body; `Some` sends it with `Content-Type: application/json`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors, timeouts, or an unparsable response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: dsp-serve\r\n");
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        if let Some(body) = body {
            self.stream.write_all(body.as_bytes())?;
        }
        self.stream.flush()?;
        self.read_response()
    }

    /// Send one request with arbitrary extra headers and read the
    /// response, reporting on failure whether any response byte had
    /// already arrived (the proxy's retry-safety signal).
    ///
    /// # Errors
    ///
    /// Fails on transport errors, timeouts, or an unparsable response;
    /// the error carries `response_started`.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> Result<ClientResponse, ExchangeError> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: dsp-router\r\n");
        for (name, value) in extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            head.push_str(&format!(
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            ));
        }
        head.push_str("\r\n");
        let write = (|| {
            self.stream.write_all(head.as_bytes())?;
            if let Some(body) = body {
                self.stream.write_all(body.as_bytes())?;
            }
            self.stream.flush()
        })();
        if let Err(error) = write {
            return Err(ExchangeError {
                error,
                response_started: false,
            });
        }
        let mut started = false;
        self.read_response_flagged(&mut started)
            .map_err(|error| ExchangeError {
                error,
                response_started: started,
            })
    }

    /// Write raw bytes (for malformed-request tests) and read whatever
    /// response comes back.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unparsable response.
    pub fn raw(&mut self, bytes: &[u8]) -> io::Result<ClientResponse> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let mut started = false;
        self.read_response_flagged(&mut started)
    }

    /// Like [`read_response`](Self::read_response) but flips `started`
    /// as soon as the first response byte arrives. Only the head loop
    /// needs the flag: the body/chunk readers run strictly after it.
    fn read_response_flagged(&mut self, started: &mut bool) -> io::Result<ClientResponse> {
        self.got_byte = false;
        self.deadline = self.phase.map(|_| Instant::now() + self.overall);
        let mut buf = Vec::with_capacity(1024);
        let mut chunk = [0u8; 4096];
        let header_end = loop {
            if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            let n = self.read_some(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            *started = true;
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..header_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response head"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        let chunked = headers
            .iter()
            .find(|(n, _)| n == "transfer-encoding")
            .is_some_and(|(_, v)| v.eq_ignore_ascii_case("chunked"));
        let mut rest = buf[header_end + 4..].to_vec();
        if chunked {
            let (body, chunks) = self.read_chunked(&mut rest)?;
            return Ok(ClientResponse {
                status,
                headers,
                chunks,
                body,
            });
        }
        let content_length: usize = headers
            .iter()
            .find(|(n, _)| n == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = rest;
        while body.len() < content_length {
            let n = self.read_some(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(content_length);
        Ok(ClientResponse {
            status,
            headers,
            chunks: 0,
            body,
        })
    }

    /// Decode a chunked body: `rest` holds bytes already read past the
    /// header block. Returns the reassembled body and the chunk count.
    fn read_chunked(&mut self, rest: &mut Vec<u8>) -> io::Result<(Vec<u8>, usize)> {
        let mut body = Vec::new();
        let mut chunks = 0usize;
        loop {
            let line_end = self.fill_until_crlf(rest)?;
            let size_line = std::str::from_utf8(&rest[..line_end])
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size line"))?;
            // Chunk extensions (after ';') are legal; we ignore them.
            let size_hex = size_line.split(';').next().unwrap_or("").trim();
            let size = usize::from_str_radix(size_hex, 16)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
            // Chunk data plus its trailing CRLF.
            let needed = line_end + 2 + size + 2;
            let mut chunk = [0u8; 4096];
            while rest.len() < needed {
                let n = self.read_some(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-chunk",
                    ));
                }
                rest.extend_from_slice(&chunk[..n]);
            }
            if size == 0 {
                // The terminator's own CRLF pair ends the stream (no
                // trailers are ever sent by dsp-serve).
                return Ok((body, chunks));
            }
            body.extend_from_slice(&rest[line_end + 2..line_end + 2 + size]);
            chunks += 1;
            rest.drain(..needed);
        }
    }

    /// Read until `rest` contains a CRLF; return its offset.
    fn fill_until_crlf(&mut self, rest: &mut Vec<u8>) -> io::Result<usize> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = rest.windows(2).position(|w| w == b"\r\n") {
                return Ok(pos);
            }
            let n = self.read_some(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-chunk-header",
                ));
            }
            rest.extend_from_slice(&chunk[..n]);
        }
    }
}
