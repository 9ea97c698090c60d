//! A hardened std-only HTTP status endpoint: HTTP/1.1 keep-alive with a
//! per-connection request limit, read/write deadlines, a bounded
//! connection cap with accept-queue shedding (503 + `Retry-After`),
//! slow-loris protection (header size and header time limits) and
//! graceful drain-on-shutdown. This is still deliberately not a web
//! server — it exists so `tincy serve --status-addr` can expose
//! `/metrics`, `/healthz` and `/report` to a long-lived scraper without
//! pulling in a dependency the offline build cannot have.
//!
//! Connection lifecycle (DESIGN.md §8 "Telemetry hardening"):
//!
//! ```text
//! accept ── over cap? ──> shed: 503 + Retry-After, close
//!    │
//!    ▼
//! read head (≤ max_header_bytes, ≤ header_deadline) ──> 431/400 close
//!    │
//!    ▼
//! route + write full response
//!    │
//!    ├─ Connection: close / request limit / shutting down ──> close
//!    └─ otherwise ──> keep-alive: read next head
//! ```

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs of the status server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Concurrent connections served; accepts beyond the cap are shed
    /// with `503` + `Retry-After` instead of queueing.
    pub max_connections: usize,
    /// Requests served on one keep-alive connection before it is closed
    /// (bounds how long one client can monopolize a slot).
    pub max_requests_per_conn: usize,
    /// Largest accepted request head (request line + headers).
    pub max_header_bytes: usize,
    /// Total time allowed to receive one request head; a peer trickling
    /// header bytes (slow loris) is cut off at this deadline.
    pub header_deadline: Duration,
    /// Per-read/write socket timeout: a stalled peer cannot wedge a
    /// handler thread, and idle keep-alive connections are reaped after
    /// this long without a request.
    pub io_timeout: Duration,
    /// How long [`StatusServer::shutdown`] waits for in-flight
    /// connections to finish their current response before detaching.
    pub drain_deadline: Duration,
    /// `Retry-After` seconds advertised on shed (503) responses.
    pub retry_after_secs: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_requests_per_conn: 128,
            max_header_bytes: 8 * 1024,
            header_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_secs(2),
            drain_deadline: Duration::from_secs(5),
            retry_after_secs: 1,
        }
    }
}

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

    /// Renders the full wire form, including the `Connection` header.
    fn to_bytes(&self, close: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if close { "close" } else { "keep-alive" },
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
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
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
    let mut close = false;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':')?;
        if name.trim().eq_ignore_ascii_case("connection")
            && value.trim().eq_ignore_ascii_case("close")
        {
            close = true;
        }
    }
    Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        close,
    })
}

/// A route handler, called once per matching GET request.
pub type Handler = Box<dyn Fn() -> Response + Send + Sync>;

/// Point-in-time serving statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections currently being served.
    pub active: usize,
    /// Connections accepted into service over the server's lifetime.
    pub accepted: u64,
    /// Connections shed with 503 because the cap was reached.
    pub shed: u64,
    /// Requests answered across all connections.
    pub requests: u64,
}

#[derive(Default)]
struct Counters {
    active: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    requests: AtomicU64,
}

/// The status endpoint: binds immediately, serves on a background accept
/// thread plus one short-lived thread per connection, until
/// [`Self::shutdown`] (or drop) stops accepting and drains in-flight
/// connections.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    config: ServerConfig,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` with default tuning; see [`Self::bind_with`].
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn bind(addr: &str, routes: Vec<(&'static str, Handler)>) -> io::Result<Self> {
        Self::bind_with(addr, routes, ServerConfig::default())
    }

    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port)
    /// and starts serving `routes` (exact-match paths, query strings
    /// ignored) under the given tuning.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures.
    pub fn bind_with(
        addr: &str,
        routes: Vec<(&'static str, Handler)>,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let routes = Arc::new(routes);
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept_config = config.clone();
        let handle = std::thread::Builder::new()
            .name("tincy-status".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_stop.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if accept_counters.active.load(Ordering::Acquire)
                        >= accept_config.max_connections
                    {
                        // Shed at the accept gate: a best-effort 503 so the
                        // peer backs off instead of queueing. Runs on its
                        // own short-lived thread — it must drain the peer's
                        // request bytes (or the close would RST the 503
                        // away) and that wait cannot block the accept loop.
                        accept_counters.shed.fetch_add(1, Ordering::Relaxed);
                        let config = accept_config.clone();
                        let _ = std::thread::Builder::new()
                            .name("tincy-status-shed".to_string())
                            .spawn(move || {
                                let _ = shed(stream, &config);
                            });
                        continue;
                    }
                    accept_counters.active.fetch_add(1, Ordering::AcqRel);
                    accept_counters.accepted.fetch_add(1, Ordering::Relaxed);
                    let routes = Arc::clone(&routes);
                    let stop = Arc::clone(&accept_stop);
                    let counters = Arc::clone(&accept_counters);
                    let config = accept_config.clone();
                    // Handler threads are detached; `active` tracks them
                    // for the shutdown drain.
                    let spawned = std::thread::Builder::new()
                        .name("tincy-status-conn".to_string())
                        .spawn(move || {
                            let _ = serve_connection(stream, &routes, &config, &stop, &counters);
                            counters.active.fetch_sub(1, Ordering::AcqRel);
                        });
                    if spawned.is_err() {
                        accept_counters.active.fetch_sub(1, Ordering::AcqRel);
                    }
                }
            })?;
        Ok(Self {
            addr,
            stop,
            counters,
            config,
            handle: Some(handle),
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            active: self.counters.active.load(Ordering::Acquire),
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, lets in-flight connections finish their current
    /// response (keep-alive connections are told `Connection: close`),
    /// and waits up to the drain deadline for them to wind down.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept call with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, self.config.io_timeout);
        let _ = handle.join();
        let deadline = Instant::now() + self.config.drain_deadline;
        while self.counters.active.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Best-effort 503 on an over-cap connection: respond, then drain the
/// peer's request bytes until it closes (bounded by the read timeout) so
/// the close does not reset the response away.
fn shed(mut stream: TcpStream, config: &ServerConfig) -> io::Result<()> {
    stream.set_write_timeout(Some(config.io_timeout))?;
    stream.set_read_timeout(Some(config.io_timeout))?;
    stream.write_all(&Response::unavailable(config.retry_after_secs).to_bytes(true))?;
    stream.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

fn serve_connection(
    mut stream: TcpStream,
    routes: &[(&'static str, Handler)],
    config: &ServerConfig,
    stop: &AtomicBool,
    counters: &Counters,
) -> io::Result<()> {
    stream.set_read_timeout(Some(config.io_timeout))?;
    stream.set_write_timeout(Some(config.io_timeout))?;
    let mut parser = RequestParser::new(config.max_header_bytes);
    let mut served = 0usize;
    let mut buf = [0u8; 1024];
    loop {
        // Read one request head, bounding both its size and the time the
        // peer may take to deliver it.
        let head_start = Instant::now();
        let request = loop {
            match parser.next_request() {
                Parse::Complete(request) => break request,
                Parse::Overflow => {
                    return respond(
                        &mut stream,
                        counters,
                        &Response::plain(431, "head too large\n"),
                    );
                }
                Parse::Malformed => {
                    return respond(
                        &mut stream,
                        counters,
                        &Response::plain(400, "bad request\n"),
                    );
                }
                Parse::Incomplete => {}
            }
            if stop.load(Ordering::Acquire) && parser.buffered() == 0 {
                // Draining and idle: close instead of waiting for another
                // request that will never be served.
                return Ok(());
            }
            if head_start.elapsed() >= config.header_deadline {
                if parser.buffered() == 0 {
                    return Ok(()); // idle keep-alive connection reaped
                }
                return respond(
                    &mut stream,
                    counters,
                    &Response::plain(408, "head timeout\n"),
                );
            }
            match stream.read(&mut buf) {
                Ok(0) => return Ok(()), // peer closed
                Ok(n) => parser.feed(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    // Socket timeout: loop back so the header deadline and
                    // stop flag are re-checked.
                }
                Err(e) => return Err(e),
            }
        };
        served += 1;
        let response = if request.method != "GET" {
            Response::plain(405, "method not allowed\n")
        } else {
            routes
                .iter()
                .find(|(route, _)| *route == request.path())
                .map_or_else(Response::not_found, |(_, handler)| handler())
        };
        let close =
            request.close || served >= config.max_requests_per_conn || stop.load(Ordering::Acquire);
        counters.requests.fetch_add(1, Ordering::Relaxed);
        stream.write_all(&response.to_bytes(close))?;
        stream.flush()?;
        if close {
            return Ok(());
        }
    }
}

/// Writes a terminal (always-close) response. The peer's remaining
/// request bytes are drained (briefly, bounded by the socket timeout)
/// before the close, so the response is not wiped out by a TCP reset
/// for unread data.
fn respond(stream: &mut TcpStream, counters: &Counters, response: &Response) -> io::Result<()> {
    counters.requests.fetch_add(1, Ordering::Relaxed);
    stream.write_all(&response.to_bytes(true))?;
    stream.flush()?;
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    Ok(())
}

/// A parsed HTTP response, as returned by the scrape clients.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Header pairs in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl HttpResponse {
    /// The value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive scrape client: one TCP connection, many GETs. Each GET
/// reads exactly `Content-Length` body bytes, so the connection stays
/// usable for the next request.
pub struct HttpClient {
    stream: TcpStream,
    addr: SocketAddr,
    buf: Vec<u8>,
}

impl HttpClient {
    /// Connects to `addr` with `timeout` applied to the connect and every
    /// subsequent read/write.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream,
            addr,
            buf: Vec::new(),
        })
    }

    /// Issues one keep-alive GET and reads the complete response.
    ///
    /// # Errors
    ///
    /// `ConnectionAborted` when the peer closed before sending any part of
    /// the response (e.g. reaped idle connection — reconnect and retry);
    /// `InvalidData` when a response started but arrived truncated or
    /// malformed.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        write!(
            self.stream,
            "GET {path} HTTP/1.1\r\nHost: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr
        )?;
        self.stream.flush()?;
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(end) = find_terminator(&self.buf) {
                break end;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(if self.buf.is_empty() {
                    io::Error::new(io::ErrorKind::ConnectionAborted, "closed before response")
                } else {
                    io::Error::new(io::ErrorKind::InvalidData, "truncated response head")
                });
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        self.buf.drain(..head_end + 4);
        let (status, headers) = parse_response_head(&head)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed response head"))?;
        let length: usize = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing content length"))?;
        while self.buf.len() < length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "truncated response body",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[..length]).into_owned();
        self.buf.drain(..length);
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
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

/// A one-shot HTTP GET against `addr` (the golden tests' and the
/// ledger's scrape client). Returns the status code and
/// body.
///
/// # Errors
///
/// Propagates connection failures; malformed responses surface as
/// `InvalidData`.
pub fn http_get(addr: impl ToSocketAddrs, path: &str) -> io::Result<(u16, String)> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
    let timeout = Duration::from_secs(2);
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing response head"))?;
    let (status, _) = parse_response_head(head)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing status code"))?;
    Ok((status, body.to_string()))
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

    #[test]
    fn routes_serve_and_unknown_paths_404() {
        let server = test_server();
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "m_total 1\n");
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
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = test_server();
        let mut client = HttpClient::connect(server.addr(), Duration::from_secs(2)).unwrap();
        for _ in 0..5 {
            let response = client.get("/metrics").unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.body, "m_total 1\n");
            assert_eq!(response.header("connection"), Some("keep-alive"));
        }
        let stats = server.stats();
        assert_eq!(stats.accepted, 1, "one connection carried all requests");
        assert_eq!(stats.requests, 5);
    }

    #[test]
    fn request_limit_closes_the_connection() {
        let server = StatusServer::bind_with(
            "127.0.0.1:0",
            test_routes(),
            ServerConfig {
                max_requests_per_conn: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = HttpClient::connect(server.addr(), Duration::from_secs(2)).unwrap();
        assert_eq!(
            client.get("/metrics").unwrap().header("connection"),
            Some("keep-alive")
        );
        let second = client.get("/metrics").unwrap();
        assert_eq!(second.header("connection"), Some("close"));
        assert!(client.get("/metrics").is_err(), "connection was closed");
    }

    #[test]
    fn connection_cap_sheds_with_retry_after() {
        let server = StatusServer::bind_with(
            "127.0.0.1:0",
            test_routes(),
            ServerConfig {
                max_connections: 1,
                io_timeout: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        // Occupy the only slot with a keep-alive connection.
        let mut holder = HttpClient::connect(server.addr(), Duration::from_secs(2)).unwrap();
        assert_eq!(holder.get("/metrics").unwrap().status, 200);
        // The next connection is shed with 503 + Retry-After.
        let mut shed = HttpClient::connect(server.addr(), Duration::from_secs(2)).unwrap();
        let response = shed.get("/metrics").unwrap();
        assert_eq!(response.status, 503);
        assert!(response.header("retry-after").is_some());
        assert!(server.stats().shed >= 1);
    }

    #[test]
    fn oversized_heads_are_rejected_not_hung() {
        let server = StatusServer::bind_with(
            "127.0.0.1:0",
            test_routes(),
            ServerConfig {
                max_header_bytes: 256,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let long = format!("/metrics?junk={}", "x".repeat(1024));
        let (status, _) = http_get(server.addr(), &long).unwrap();
        assert_eq!(status, 431);
    }

    #[test]
    fn slow_loris_is_cut_off_at_the_header_deadline() {
        let server = StatusServer::bind_with(
            "127.0.0.1:0",
            test_routes(),
            ServerConfig {
                header_deadline: Duration::from_millis(150),
                io_timeout: Duration::from_millis(50),
                ..ServerConfig::default()
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
    fn pipelined_requests_are_each_answered() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\nGET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert_eq!(out.matches("HTTP/1.1 200").count(), 2, "got: {out}");
        assert!(out.contains("m_total 1"));
        assert!(out.contains("\"ok\":true"));
    }

    #[test]
    fn shutdown_unbinds_drains_and_is_idempotent() {
        let mut server = test_server();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        assert_eq!(server.stats().active, 0, "drained at shutdown");
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err()
                || http_get(addr, "/metrics").is_err(),
            "the endpoint no longer serves after shutdown"
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
            assert!(request.close);
            assert_eq!(parser.buffered(), 0);
        }
    }
}
