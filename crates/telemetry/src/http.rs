//! A hardened std-only HTTP status endpoint that answers exactly one
//! request per connection, always with `Connection: close`: read/write
//! deadlines, a bounded connection cap with accept-queue shedding (503 +
//! `Retry-After`) by a bounded number of shed handlers, slow-loris
//! protection (header size and header time limits) and graceful
//! drain-on-shutdown. This is still deliberately not a web server — it
//! exists so `tincy serve --status-addr` can expose `/metrics`,
//! `/healthz` and `/report` to a scraper without pulling in a dependency
//! the offline build cannot have. HTTP/1.1 lets a server close after every
//! response; a scraper pays one TCP connect per scrape.
//!
//! Connection lifecycle (DESIGN.md §8.2 "Endpoint hardening"):
//!
//! ```text
//! accept ── over cap? ──> fewer than 8 shed handlers live? ── yes ──> 503 + Retry-After, close
//!    │                                                   └─── no ──> close unanswered
//!    ▼
//! read one head (≤ 8 KiB, ≤ 2 s) ──> 431 / 400 / 408, close
//!    │
//!    ▼
//! route, write the full response with `Connection: close`, drain, close
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The server's limits: [`LIMITS`] is the one value the product runs
/// with; unit tests shrink it through [`StatusServer::start`].
#[derive(Debug, Clone, Copy)]
struct Limits {
    /// Connections served at once; accepts beyond the cap are shed.
    max_connections: usize,
    /// Shed handlers alive at once. An over-cap accept past this is
    /// closed unanswered, so no connection rate grows the thread count.
    max_shedding: usize,
    /// Largest accepted request head (request line + headers).
    max_header_bytes: usize,
    /// Total time allowed to receive the request head; a peer trickling
    /// header bytes (slow loris) is cut off at this deadline.
    header_deadline: Duration,
    /// Per-read/write socket timeout, and the bound on draining the
    /// peer after a response: a stalled peer cannot wedge a thread.
    io_timeout: Duration,
    /// How long [`StatusServer::shutdown`] waits for in-flight
    /// connections to finish their response before detaching.
    drain_deadline: Duration,
}

const LIMITS: Limits = Limits {
    max_connections: 64,
    max_shedding: 8,
    max_header_bytes: 8 * 1024,
    header_deadline: Duration::from_secs(2),
    io_timeout: Duration::from_secs(2),
    drain_deadline: Duration::from_secs(5),
};

/// `Retry-After` seconds advertised on shed (503) responses.
const RETRY_AFTER_SECS: u64 = 1;

/// An HTTP response produced by a route handler.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// `Retry-After` header (seconds), set on shed responses.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A 200 response.
    pub fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            content_type,
            body,
            retry_after: None,
        }
    }

    /// The 404 response.
    pub fn not_found() -> Self {
        Self::plain(404, "not found\n")
    }

    /// The 503 shedding response, advertising when to come back.
    pub fn unavailable(retry_after_secs: u64) -> Self {
        Self {
            retry_after: Some(retry_after_secs),
            ..Self::plain(503, "over capacity, retry later\n")
        }
    }

    fn plain(status: u16, body: &str) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.to_string(),
            retry_after: None,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Error",
        }
    }

    /// Renders the full wire form; every response closes its connection.
    fn to_bytes(&self) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        head.push_str("\r\n");
        let mut bytes = head.into_bytes();
        bytes.extend_from_slice(self.body.as_bytes());
        bytes
    }
}

/// One parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, ...).
    pub method: String,
    /// Request target (path + optional query).
    pub target: String,
}

impl Request {
    /// The path component of the target (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or("")
    }
}

/// Outcome of [`RequestParser::next_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// No complete head buffered yet; feed more bytes.
    Incomplete,
    /// One complete request head, consumed from the buffer (pipelined
    /// bytes after it remain buffered).
    Complete(Request),
    /// The buffered head exceeds the size limit (maps to 431).
    Overflow,
    /// The head terminator arrived but the head is not valid HTTP (maps
    /// to 400).
    Malformed,
}

/// Incremental request-head parser: bytes are [`fed`](Self::feed) in
/// arbitrary chunks (however the socket splits them) and complete heads
/// are taken out one at a time, so pipelined requests survive intact.
/// Never panics on any byte sequence.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    max_bytes: usize,
}

impl RequestParser {
    /// A parser accepting heads up to `max_bytes`.
    pub fn new(max_bytes: usize) -> Self {
        Self {
            buf: Vec::new(),
            max_bytes,
        }
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (partial head or pipelined requests).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next complete request head out of the buffer.
    pub fn next_request(&mut self) -> Parse {
        let Some(end) = find_terminator(&self.buf) else {
            return if self.buf.len() > self.max_bytes {
                Parse::Overflow
            } else {
                Parse::Incomplete
            };
        };
        if end > self.max_bytes {
            return Parse::Overflow;
        }
        let head = String::from_utf8_lossy(&self.buf[..end]).into_owned();
        self.buf.drain(..end + 4);
        match parse_head(&head) {
            Some(request) => Parse::Complete(request),
            None => Parse::Malformed,
        }
    }
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &str) -> Option<Request> {
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some() || !version.starts_with("HTTP/") {
        return None;
    }
    // Header values are never read (every response closes), but a header
    // line without a colon still makes the head malformed.
    if lines.any(|line| !line.is_empty() && !line.contains(':')) {
        return None;
    }
    Some(Request {
        method: method.to_string(),
        target: target.to_string(),
    })
}

/// A route handler, called once per matching GET request.
pub type Handler = Box<dyn Fn() -> Response + Send + Sync>;

/// The status endpoint: binds immediately, serves on a background accept
/// thread plus one short-lived thread per served connection (at most 64)
/// and per shed one (at most 8), until [`Self::shutdown`] (or drop) stops
/// accepting and drains in-flight connections.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Connections being served (the cap and the shutdown drain read it).
    active: Arc<AtomicUsize>,
    /// Shed handlers alive (bounded by `limits.max_shedding`; the
    /// shutdown drain reads it).
    shedding: Arc<AtomicUsize>,
    limits: Limits,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port)
    /// and starts serving `routes` (exact-match paths, query strings
    /// ignored).
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn bind(addr: &str, routes: Vec<(&'static str, Handler)>) -> io::Result<Self> {
        Self::start(addr, routes, LIMITS)
    }

    fn start(addr: &str, routes: Vec<(&'static str, Handler)>, limits: Limits) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let shedding = Arc::new(AtomicUsize::new(0));
        let routes = Arc::new(routes);
        let (accept_stop, accept_active, accept_shedding) = (
            Arc::clone(&stop),
            Arc::clone(&active),
            Arc::clone(&shedding),
        );
        let handle = std::thread::Builder::new()
            .name("tincy-status".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if accept_active.load(Ordering::Acquire) >= limits.max_connections {
                        // Over the cap: a best-effort 503 so the peer backs
                        // off instead of queueing. It runs on its own thread
                        // — it must drain the peer's request bytes (or the
                        // close would RST the 503 away) and that wait cannot
                        // block the accept loop. Past the shed ceiling the
                        // connection is dropped unanswered.
                        if accept_shedding.load(Ordering::Acquire) < limits.max_shedding {
                            spawn_counted(&accept_shedding, "tincy-status-shed", move || {
                                let _ = shed(stream, &limits);
                            });
                        }
                        continue;
                    }
                    let routes = Arc::clone(&routes);
                    let stop = Arc::clone(&accept_stop);
                    spawn_counted(&accept_active, "tincy-status-conn", move || {
                        let _ = serve_connection(stream, &routes, &limits, &stop);
                    });
                }
            })?;
        Ok(Self {
            addr,
            stop,
            active,
            shedding,
            limits,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, lets in-flight connections finish their
    /// response, and waits up to the drain deadline for them and the
    /// shed handlers to wind down. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, self.limits.io_timeout);
        let _ = handle.join();
        let deadline = Instant::now() + self.limits.drain_deadline;
        let live = || self.active.load(Ordering::Acquire) + self.shedding.load(Ordering::Acquire);
        while live() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Runs `work` on a detached thread that `live` counts while it runs.
fn spawn_counted(live: &Arc<AtomicUsize>, name: &str, work: impl FnOnce() + Send + 'static) {
    live.fetch_add(1, Ordering::AcqRel);
    let done = Arc::clone(live);
    let spawned = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            work();
            done.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        live.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Best-effort 503 on an over-cap connection.
fn shed(mut stream: TcpStream, limits: &Limits) -> io::Result<()> {
    stream.set_read_timeout(Some(limits.io_timeout))?;
    stream.set_write_timeout(Some(limits.io_timeout))?;
    respond(
        &mut stream,
        &Response::unavailable(RETRY_AFTER_SECS),
        limits.io_timeout,
    )
}

/// Reads one request head, bounding both its size and the time the peer
/// may take to deliver it, and answers it.
fn serve_connection(
    mut stream: TcpStream,
    routes: &[(&'static str, Handler)],
    limits: &Limits,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(limits.io_timeout))?;
    stream.set_write_timeout(Some(limits.io_timeout))?;
    let mut parser = RequestParser::new(limits.max_header_bytes);
    let mut buf = [0u8; 1024];
    let head_start = Instant::now();
    let response = loop {
        match parser.next_request() {
            Parse::Complete(request) if request.method != "GET" => {
                break Response::plain(405, "method not allowed\n");
            }
            Parse::Complete(request) => {
                break routes
                    .iter()
                    .find(|(route, _)| *route == request.path())
                    .map_or_else(Response::not_found, |(_, handler)| handler());
            }
            Parse::Overflow => break Response::plain(431, "head too large\n"),
            Parse::Malformed => break Response::plain(400, "bad request\n"),
            Parse::Incomplete => {}
        }
        if stop.load(Ordering::Acquire) && parser.buffered() == 0 {
            // Draining and nothing asked yet: close instead of waiting
            // for a request that will never be served.
            return Ok(());
        }
        if head_start.elapsed() >= limits.header_deadline {
            break Response::plain(408, "head timeout\n");
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => parser.feed(&buf[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Socket timeout: loop back so the header deadline and
                // stop flag are re-checked.
            }
            Err(e) => return Err(e),
        }
    };
    respond(&mut stream, &response, limits.io_timeout)
}

/// Writes the one response of a connection, then drains the peer's
/// remaining bytes until it closes (for less than twice `io_timeout`) so
/// the close does not reset the response away with a TCP RST for unread
/// data.
fn respond(stream: &mut TcpStream, response: &Response, io_timeout: Duration) -> io::Result<()> {
    stream.write_all(&response.to_bytes())?;
    stream.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + io_timeout;
    let mut sink = [0u8; 1024];
    while Instant::now() < deadline {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

#[allow(clippy::type_complexity)]
fn parse_response_head(head: &str) -> Option<(u16, Vec<(String, String)>)> {
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':')?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }
    Some((status, headers))
}

/// A one-shot HTTP GET against `addr` (the scrape client of the smoke
/// checks, the golden tests and the ledger). Returns the status code and
/// body.
///
/// # Errors
///
/// Propagates connection failures; a peer that closes before sending a
/// byte is `ConnectionAborted`; a malformed or truncated response is
/// `InvalidData`.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, String)> {
    let (status, _, body) = fetch(addr, path)?;
    Ok((status, body))
}

/// [`http_get`] with the response headers, in wire order.
#[allow(clippy::type_complexity)]
fn fetch(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, Vec<(String, String)>, String)> {
    let invalid = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
    let timeout = Duration::from_secs(2);
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    // One write: `write!` on the raw stream would send each piece of the
    // format as its own segment.
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    if raw.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::ConnectionAborted,
            "closed before any response byte",
        ));
    }
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("truncated response head"))?;
    let (status, headers) =
        parse_response_head(head).ok_or_else(|| invalid("malformed response head"))?;
    let length = headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .map(|(_, value)| value.parse::<usize>());
    if length.is_some_and(|length| length != Ok(body.len())) {
        return Err(invalid("response body does not match its Content-Length"));
    }
    Ok((status, headers, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_routes() -> Vec<(&'static str, Handler)> {
        vec![
            (
                "/metrics",
                Box::new(|| Response::ok("text/plain; version=0.0.4", "m_total 1\n".into()))
                    as Handler,
            ),
            (
                "/healthz",
                Box::new(|| Response::ok("application/json", "{\"ok\":true}".into())) as Handler,
            ),
        ]
    }

    fn test_server() -> StatusServer {
        StatusServer::bind("127.0.0.1:0", test_routes()).expect("bind loopback")
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Polls `holds` every 2 ms for up to 5 s.
    fn wait_until(what: &str, holds: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !holds() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn routes_serve_and_unknown_paths_404() {
        let server = test_server();
        let (status, headers, body) = fetch(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "m_total 1\n");
        assert_eq!(header(&headers, "connection"), Some("close"));
        let (status, body) = http_get(server.addr(), "/healthz").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        let (status, _) = http_get(server.addr(), "/nope").unwrap();
        assert_eq!(status, 404);
        // Query strings are ignored for routing.
        let (status, _) = http_get(server.addr(), "/metrics?x=1").unwrap();
        assert_eq!(status, 200);
    }

    #[test]
    fn connection_cap_sheds_with_retry_after() {
        let server = StatusServer::start(
            "127.0.0.1:0",
            test_routes(),
            Limits {
                max_connections: 1,
                ..LIMITS
            },
        )
        .unwrap();
        // Occupy the only slot with a connection that has not sent its
        // request yet.
        let _holder = TcpStream::connect(server.addr()).unwrap();
        wait_until("the holder to be served", || {
            server.active.load(Ordering::Acquire) == 1
        });
        // The next connection is shed with 503 + Retry-After.
        let (status, headers, _) = fetch(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 503);
        assert_eq!(header(&headers, "retry-after"), Some("1"));
        assert_eq!(header(&headers, "connection"), Some("close"));
    }

    #[test]
    fn shed_handlers_stay_under_their_ceiling() {
        let server = StatusServer::start(
            "127.0.0.1:0",
            test_routes(),
            Limits {
                max_connections: 1,
                max_shedding: 2,
                header_deadline: Duration::from_secs(10),
                ..LIMITS
            },
        )
        .unwrap();
        let holder = TcpStream::connect(server.addr()).unwrap();
        wait_until("the holder to be served", || {
            server.active.load(Ordering::Acquire) == 1
        });
        // Six idle connections over the cap. A shed handler answers 503
        // and then waits for its peer to close, so it stays live; the
        // connections past the ceiling are closed unanswered.
        let mut idle = Vec::new();
        let (mut peak, mut answered) = (0, 0);
        for _ in 0..6 {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut out = String::new();
            // A reset is a close unanswered, too.
            let _ = stream.read_to_string(&mut out);
            if out.starts_with("HTTP/1.1 503") {
                answered += 1;
            } else {
                assert!(out.is_empty(), "got: {out}");
            }
            peak = peak.max(server.shedding.load(Ordering::Acquire));
            idle.push(stream);
        }
        assert!(peak <= 2, "{peak} shed handlers live, ceiling 2");
        assert!(answered >= 1, "no over-cap connection was answered 503");
        // With the peers gone, the server answers again.
        drop(idle);
        drop(holder);
        wait_until("the holder and shed handlers to end", || {
            server.active.load(Ordering::Acquire) == 0
                && server.shedding.load(Ordering::Acquire) == 0
        });
        assert_eq!(http_get(server.addr(), "/metrics").unwrap().0, 200);
    }

    #[test]
    fn oversized_heads_are_rejected_not_hung() {
        let server = StatusServer::start(
            "127.0.0.1:0",
            test_routes(),
            Limits {
                max_header_bytes: 256,
                ..LIMITS
            },
        )
        .unwrap();
        let long = format!("/metrics?junk={}", "x".repeat(1024));
        let (status, _) = http_get(server.addr(), &long).unwrap();
        assert_eq!(status, 431);
    }

    #[test]
    fn slow_loris_is_cut_off_at_the_header_deadline() {
        let server = StatusServer::start(
            "127.0.0.1:0",
            test_routes(),
            Limits {
                header_deadline: Duration::from_millis(150),
                io_timeout: Duration::from_millis(50),
                ..LIMITS
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"GET /metrics HTT").unwrap(); // never finishes
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "got: {out}");
    }

    #[test]
    fn malformed_requests_get_400() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut out = String::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "got: {out}");
    }

    #[test]
    fn pipelined_requests_get_one_answer_then_close() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
            )
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "got: {out}");
        assert!(out.starts_with("HTTP/1.1 200"), "got: {out}");
        assert!(out.contains("Connection: close\r\n"), "got: {out}");
        assert!(out.ends_with("m_total 1\n"), "got: {out}");
    }

    #[test]
    fn shutdown_unbinds_drains_and_is_idempotent() {
        let mut server = test_server();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        assert_eq!(server.active.load(Ordering::Acquire), 0, "drained");
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || http_get(addr, "/metrics").is_err(),
            "the endpoint no longer serves after shutdown"
        );
    }

    /// Per-client outcome counters of the soak, summed by the main thread.
    #[derive(Debug, Default)]
    struct Tally {
        ok: u64,
        shed: u64,
        shed_without_retry_after: u64,
        truncated: u64,
        body_mismatch: u64,
        unexpected_status: u64,
    }

    impl std::ops::AddAssign for Tally {
        fn add_assign(&mut self, other: Self) {
            self.ok += other.ok;
            self.shed += other.shed;
            self.shed_without_retry_after += other.shed_without_retry_after;
            self.truncated += other.truncated;
            self.body_mismatch += other.body_mismatch;
            self.unexpected_status += other.unexpected_status;
        }
    }

    /// Soak: 16 clients released together, three one-request connections
    /// each, against a server capped at 4 whose route holds its first
    /// requests until the other 12 first-wave connections are shed with
    /// `503` + `Retry-After` (or, past the shed ceiling, closed); the
    /// server shuts down once the first wave is done, with the later
    /// ones in flight. Every response a client reads must be complete and
    /// byte-identical to the route body (no half-written response across
    /// shedding or the shutdown drain), and the drain must end inside its
    /// deadline.
    #[test]
    fn soak_one_request_clients_survive_shedding_and_mid_run_shutdown() {
        const CLIENTS: usize = 16;
        const ROUNDS: usize = 3;
        let cap = CLIENTS / 4;
        let limits = Limits {
            max_connections: cap,
            header_deadline: Duration::from_secs(1),
            io_timeout: Duration::from_secs(1),
            drain_deadline: Duration::from_secs(3),
            ..LIMITS
        };
        let body: String = "tincy_soak_metric 1\n".repeat(200);
        let gate = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let (route_body, route_gate) = (body.clone(), Arc::clone(&gate));
        let route: Handler = Box::new(move || {
            let (open, opened) = &*route_gate;
            let mut open = open.lock().expect("gate lock poisoned");
            while !*open {
                open = opened.wait(open).expect("gate lock poisoned");
            }
            Response::ok("text/plain; charset=utf-8", route_body.clone())
        });
        let mut server = StatusServer::start("127.0.0.1:0", vec![("/metrics", route)], limits)
            .expect("bind soak server");
        let addr = server.addr();

        let start = Arc::new(std::sync::Barrier::new(CLIENTS));
        let first_wave = Arc::new(AtomicUsize::new(0));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (start, first_wave, expected) =
                    (Arc::clone(&start), Arc::clone(&first_wave), body.clone());
                std::thread::spawn(move || {
                    let mut tally = Tally::default();
                    start.wait();
                    for round in 0..ROUNDS {
                        match fetch(addr, "/metrics") {
                            Ok((200, _, body)) => {
                                tally.ok += 1;
                                tally.body_mismatch += u64::from(body != expected);
                            }
                            Ok((503, headers, _)) => {
                                tally.shed += 1;
                                tally.shed_without_retry_after +=
                                    u64::from(header(&headers, "retry-after").is_none());
                            }
                            Ok(_) => tally.unexpected_status += 1,
                            // A half-written response: the failure this
                            // soak exists to catch.
                            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                                tally.truncated += 1;
                            }
                            // Refused after shutdown, closed unanswered
                            // past the shed ceiling, reset: no response.
                            Err(_) => {}
                        }
                        if round == 0 {
                            first_wave.fetch_add(1, Ordering::AcqRel);
                        }
                        // Spaced so the shutdown lands between rounds.
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    tally
                })
            })
            .collect();

        // The cap's worth of first-wave requests wait in the route; every
        // other first-wave connection is shed.
        wait_until("the shed part of the first wave", || {
            first_wave.load(Ordering::Acquire) == CLIENTS - cap
        });
        let mid_run_active = server.active.load(Ordering::Acquire);
        *gate.0.lock().expect("gate lock poisoned") = true;
        gate.1.notify_all();
        wait_until("the first wave", || {
            first_wave.load(Ordering::Acquire) == CLIENTS
        });
        let drain_start = Instant::now();
        server.shutdown();
        let drain = drain_start.elapsed();
        let mut total = Tally::default();
        for client in clients {
            total += client.join().expect("soak client must not panic");
        }

        assert!(total.ok > 0, "no client ever got a response: {total:?}");
        assert_eq!(total.truncated, 0, "half-written responses: {total:?}");
        assert_eq!(total.body_mismatch, 0, "corrupted responses: {total:?}");
        assert_eq!(
            total.shed_without_retry_after, 0,
            "shed 503s must advertise Retry-After: {total:?}"
        );
        assert_eq!(total.unexpected_status, 0, "unexpected statuses: {total:?}");
        assert!(
            total.shed > 0,
            "cap {cap} under {CLIENTS} clients must shed: {total:?}"
        );
        assert!(
            mid_run_active <= cap,
            "active connections {mid_run_active} exceeded the cap {cap}"
        );
        assert!(
            drain <= limits.drain_deadline + Duration::from_secs(2),
            "shutdown drain took {drain:?}, deadline {:?}",
            limits.drain_deadline
        );
        assert_eq!(
            server.active.load(Ordering::Acquire),
            0,
            "connections leaked past the drain"
        );
    }

    #[test]
    fn parser_handles_arbitrary_chunking() {
        let raw = b"GET /metrics?q=1 HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
        for split in 0..raw.len() {
            let mut parser = RequestParser::new(8 * 1024);
            parser.feed(&raw[..split]);
            // A partial head is never complete...
            match parser.next_request() {
                Parse::Incomplete | Parse::Complete(_) => {}
                other => panic!("split {split}: {other:?}"),
            }
            parser.feed(&raw[split..]);
            let Parse::Complete(request) = parser.next_request() else {
                panic!("split {split}: head did not complete");
            };
            assert_eq!(request.method, "GET");
            assert_eq!(request.path(), "/metrics");
            assert_eq!(parser.buffered(), 0);
        }
    }
}
