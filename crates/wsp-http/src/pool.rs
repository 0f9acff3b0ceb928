//! The blocking HTTP client: a keep-alive [`ConnectionPool`] over
//! `std::net`, and [`http_call`] — connection-per-call through the same
//! exchange code — for the callers that price or provoke exactly that.

use crate::codec::{encode_request_into, frame_len, parse_response, HeadScan, HttpError};
use crate::message::{Request, Response};
use crate::reactor::sys;
use std::io::Write;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use wsp_telemetry::clock;

/// Default client-side read timeout for one-shot calls and pooled
/// exchanges, matching the historical hard-coded 10 s.
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// Issue one blocking request to `host:port` on a connection of its
/// own: the request says `Connection: close` and goes through a pool
/// that never gets to keep anything.
///
/// This is the connection-per-call primitive: the bench ladder, the E7
/// ablation and the overload tests call it to price or provoke exactly
/// that. Everything that talks HTTP in production goes through a
/// shared [`ConnectionPool`].
pub fn http_call(host: &str, port: u16, mut request: Request) -> Result<Response, HttpError> {
    request.headers.set("Connection", "close");
    ConnectionPool::new().call(host, port, request)
}

/// [`http_call`] to an absolute `http://` URI.
pub fn http_call_uri(uri: &str, mut request: Request) -> Result<Response, HttpError> {
    let parsed = adopt_uri_target(uri, &mut request)?;
    http_call(&parsed.host, parsed.port, request)
}

/// Read one complete response frame from `stream` into `buf` (straight
/// into its spare capacity), scanning each chunk for the head
/// terminator exactly once. Returns the frame length.
fn read_frame(stream: &TcpStream, buf: &mut Vec<u8>) -> Result<usize, ExchangeError> {
    let fd = stream.as_raw_fd();
    let mut scan = HeadScan::new();
    let mut frame: Option<usize> = None;
    loop {
        if frame.is_none() {
            if let Some(body_start) = scan.find(buf) {
                frame = Some(frame_len(buf, body_start).map_err(ExchangeError::Fatal)?);
            }
        }
        match frame {
            Some(total) if buf.len() >= total => return Ok(total),
            Some(total) => buf.reserve(total - buf.len()),
            None => buf.reserve(READ_CHUNK),
        }
        match sys::read_into_spare(fd, buf) {
            // Clean EOF before any response byte: the socket was
            // already closed server-side.
            Ok(0) if buf.is_empty() => {
                return Err(ExchangeError::Retriable(HttpError::Incomplete));
            }
            Ok(0) => return Err(ExchangeError::Fatal(HttpError::Incomplete)),
            Ok(_) => {}
            Err(e) if buf.is_empty() && is_stale_socket_error(&e) => {
                return Err(ExchangeError::Retriable(HttpError::Io(e.to_string())));
            }
            // Mid-response failures and timeouts are not provably
            // pre-execution; surface them.
            Err(e) => return Err(ExchangeError::Fatal(HttpError::Io(e.to_string()))),
        }
    }
}

/// Room reserved for a read while the frame length is still unknown.
const READ_CHUNK: usize = 4096;

/// Parse `uri` and, when `request` names no target of its own, point it
/// at the URI's path and query.
fn adopt_uri_target(uri: &str, request: &mut Request) -> Result<crate::uri::HttpUri, HttpError> {
    let mut parsed =
        crate::uri::HttpUri::parse(uri).map_err(|e| HttpError::Connect(e.to_string()))?;
    if request.target == "/" || request.target.is_empty() {
        request.target = std::mem::take(&mut parsed.target);
    }
    Ok(parsed)
}

/// Counter snapshot of a [`ConnectionPool`] (see
/// [`ConnectionPool::stats`]). All counts are since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Calls served over a reused pooled connection.
    pub hits: u64,
    /// Calls that had to open a fresh connection.
    pub misses: u64,
    /// Pooled connections dropped instead of being reused: found dead
    /// or too long idle, answered `Connection: close`, failed
    /// mid-exchange, or evicted to keep the pool under its cap.
    pub retired: u64,
    /// Calls retried once on a fresh connection after a pooled one
    /// failed mid-exchange.
    pub retries: u64,
}

/// Most idle sockets a pool keeps, all authorities together. Authorities
/// come from registry-supplied access points, so the pool must not grow
/// with every one ever called; the cap is far above the concurrency of
/// any one caller in this workspace (reactor workers, E17's clients), so
/// a steady caller never churns.
pub(crate) const MAX_IDLE: usize = 64;

/// A socket idle for longer than this is retired on `take` without being
/// probed: it outlived any idle reaper a server is likely to run
/// ([`crate::ServerConfig::idle_keepalive_timeout`]), and the request it would
/// carry is better spent on a fresh connection than on finding out.
pub(crate) const MAX_IDLE_AGE: Duration = Duration::from_secs(30);

/// One pooled socket.
pub(crate) struct PooledConn {
    stream: TcpStream,
    /// The read timeout the socket currently carries, so an exchange
    /// with the same budget skips the `setsockopt`.
    read_timeout: Option<Duration>,
    pub(crate) idle_since: Instant,
}

impl PooledConn {
    /// A just-connected socket, no timeout set on it yet.
    pub(crate) fn fresh(stream: TcpStream) -> PooledConn {
        PooledConn {
            stream,
            read_timeout: None,
            idle_since: clock::now(),
        }
    }
}

#[derive(Default)]
pub(crate) struct IdleSet {
    /// Idle sockets per authority, oldest first. An entry may be empty
    /// while its sockets are in use; empty entries are swept whenever a
    /// new authority arrives at a full map, so `len() <= MAX_IDLE`.
    pub(crate) by_authority: std::collections::HashMap<String, Vec<PooledConn>>,
    /// Idle sockets across all authorities, `<= MAX_IDLE`.
    pub(crate) total: usize,
}

impl IdleSet {
    /// Drop the socket that has been idle longest.
    fn evict_oldest(&mut self) {
        let oldest = self
            .by_authority
            .iter_mut()
            .filter(|(_, conns)| !conns.is_empty())
            .min_by_key(|(_, conns)| conns[0].idle_since);
        if let Some((_, conns)) = oldest {
            conns.remove(0);
            self.total -= 1;
        }
    }
}

/// A keep-alive connection pool: reuses TCP connections per authority,
/// falling back to a fresh connection when a pooled one has gone stale.
/// Every HTTP caller inside the workspace goes through one — the
/// binding, the registry transport and the gateway's backend hop.
///
/// A connection is never reused after the server replied
/// `Connection: close`, and a pooled socket that died while idle (the
/// peer closed or reset it) is detected by a non-blocking peek and
/// retired before any request bytes are written to it. A pooled
/// connection that fails *mid-exchange* gets exactly one retry on a
/// fresh connection. The pool holds at most `MAX_IDLE` idle sockets
/// (oldest evicted first) and retires any idle past `MAX_IDLE_AGE`.
#[derive(Default)]
pub struct ConnectionPool {
    pub(crate) idle: parking_lot::Mutex<IdleSet>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    retired: std::sync::atomic::AtomicU64,
    retries: std::sync::atomic::AtomicU64,
}

impl ConnectionPool {
    pub fn new() -> Self {
        ConnectionPool::default()
    }

    /// Number of idle pooled connections (all hosts).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().total
    }

    /// Hit/miss/retire/retry counters.
    pub fn stats(&self) -> PoolStats {
        use std::sync::atomic::Ordering::Relaxed;
        PoolStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            retired: self.retired.load(Relaxed),
            retries: self.retries.load(Relaxed),
        }
    }

    fn retire(&self) {
        self.retired
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Pop pooled connections, newest first, until one is young enough
    /// and passes the liveness probe; the rest are retired.
    fn take(&self, authority: &str) -> Option<PooledConn> {
        loop {
            let candidate = {
                let mut idle = self.idle.lock();
                let conn = idle.by_authority.get_mut(authority)?.pop()?;
                idle.total -= 1;
                conn
            };
            if clock::now() - candidate.idle_since <= MAX_IDLE_AGE
                && sys::socket_is_quiet(candidate.stream.as_raw_fd())
            {
                return Some(candidate);
            }
            self.retire();
        }
    }

    pub(crate) fn put(&self, authority: &str, mut conn: PooledConn) {
        conn.idle_since = clock::now();
        let mut idle = self.idle.lock();
        if idle.total >= MAX_IDLE {
            idle.evict_oldest();
            self.retire();
        }
        idle.total += 1;
        if let Some(conns) = idle.by_authority.get_mut(authority) {
            conns.push(conn);
            return;
        }
        if idle.by_authority.len() >= MAX_IDLE {
            idle.by_authority.retain(|_, conns| !conns.is_empty());
        }
        idle.by_authority.insert(authority.to_owned(), vec![conn]);
    }

    /// Issue a request over a pooled (or fresh) keep-alive connection,
    /// waiting up to [`DEFAULT_CLIENT_TIMEOUT`] for each read.
    pub fn call(&self, host: &str, port: u16, request: Request) -> Result<Response, HttpError> {
        self.call_with_timeout(host, port, request, DEFAULT_CLIENT_TIMEOUT)
    }

    /// [`call`](Self::call) to an absolute `http://` URI, with the
    /// caller's read timeout.
    pub fn call_uri(
        &self,
        uri: &str,
        mut request: Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        let parsed = adopt_uri_target(uri, &mut request)?;
        self.call_with_timeout(&parsed.host, parsed.port, request, timeout)
    }

    /// [`call`](Self::call) with an explicit read timeout — callers
    /// propagating a deadline cap the wait at their remaining budget.
    ///
    /// A request that already says `Connection: close` is honoured: it
    /// goes out on a fresh connection that is not pooled afterwards
    /// (connection-per-call through the same exchange code).
    pub fn call_with_timeout(
        &self,
        host: &str,
        port: u16,
        mut request: Request,
        timeout: Duration,
    ) -> Result<Response, HttpError> {
        use std::sync::atomic::Ordering::Relaxed;
        let one_shot = request
            .headers
            .get("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        if !one_shot {
            request.headers.set("Connection", "keep-alive");
        }
        let authority = format!("{host}:{port}");
        request.headers.set("Host", authority.as_str());
        let timeout = timeout.max(Duration::from_millis(1));
        // A pooled connection may die between the liveness probe and
        // the exchange (the race is unavoidable). Retry exactly once on
        // a fresh connection — but only when the failure provably
        // happened *before any response byte arrived* (stale-socket
        // class). Once the server has started answering it may already
        // have executed the request, and resending would duplicate a
        // possibly non-idempotent call: those failures surface instead.
        let pooled = if one_shot {
            None
        } else {
            self.take(&authority)
        };
        let mut settled = None;
        if let Some(conn) = pooled {
            match self.exchange(conn, &authority, &request, timeout) {
                Ok(response) => {
                    self.hits.fetch_add(1, Relaxed);
                    settled = Some(Ok(response));
                }
                Err(ExchangeError::Retriable(_)) => {
                    self.retire();
                    self.retries.fetch_add(1, Relaxed);
                }
                Err(ExchangeError::Fatal(e)) => {
                    self.retire();
                    settled = Some(Err(e));
                }
            }
        }
        let result = settled.unwrap_or_else(|| {
            self.misses.fetch_add(1, Relaxed);
            let stream =
                TcpStream::connect((host, port)).map_err(|e| HttpError::Connect(e.to_string()))?;
            self.exchange(PooledConn::fresh(stream), &authority, &request, timeout)
                .map_err(ExchangeError::into_inner)
        });
        // An envelope's `to_xml_bytes` is a `BufPool` buffer: hand it
        // back, as the server does with a response body, or every call
        // drains the pool by one and somebody regrows a fresh buffer to
        // message size. A body too small to have come from the pool
        // (a `GET`'s, a literal's) would only seed it with runts.
        if request.body.capacity() >= wsp_xml::BufPool::FRESH_CAPACITY {
            wsp_xml::BufPool::global().put(request.body);
        }
        result
    }

    /// One request/response over `conn`; on success the connection goes
    /// back to the pool unless the response forbids reuse. One pooled
    /// buffer carries the request out and the response in.
    fn exchange(
        &self,
        mut conn: PooledConn,
        authority: &str,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, ExchangeError> {
        if conn.read_timeout != Some(timeout) {
            conn.stream
                .set_read_timeout(Some(timeout))
                .map_err(|e| ExchangeError::Fatal(HttpError::Io(e.to_string())))?;
            conn.read_timeout = Some(timeout);
        }
        let buf_pool = wsp_xml::BufPool::global();
        let mut buf = buf_pool.take();
        encode_request_into(request, &mut buf);
        // A write failure means the server never got the full request:
        // always safe to retry on a fresh connection.
        let result = match conn.stream.write_all(&buf) {
            Err(e) => Err(ExchangeError::Retriable(HttpError::Io(e.to_string()))),
            Ok(()) => {
                buf.clear();
                read_frame(&conn.stream, &mut buf).and_then(|total| {
                    let (response, _) =
                        parse_response(&buf[..total]).map_err(ExchangeError::Fatal)?;
                    if may_reuse(&buf, &response) {
                        self.put(authority, conn);
                    } else {
                        self.retire();
                    }
                    Ok(response)
                })
            }
        };
        buf_pool.put(buf);
        result
    }
}

/// May the connection that carried `response` (wire bytes `raw`) carry
/// another exchange? HTTP/1.1 defaults to persistent connections: an
/// absent `Connection` header means reuse unless the peer speaks
/// HTTP/1.0 (whose default is close). Explicit `close` — or any
/// unrecognised token — forbids it.
fn may_reuse(raw: &[u8], response: &Response) -> bool {
    match response.headers.get("connection") {
        Some(v) => v.eq_ignore_ascii_case("keep-alive"),
        None => !raw.starts_with(b"HTTP/1.0"),
    }
}

/// A client-exchange failure, split by whether a retry on a fresh
/// connection could duplicate server-side work.
#[derive(Debug)]
enum ExchangeError {
    /// The request provably never reached handler execution (write
    /// error, or EOF/reset before the first response byte).
    Retriable(HttpError),
    /// Anything after the first response byte — or a timeout, where the
    /// request may still be executing.
    Fatal(HttpError),
}

impl ExchangeError {
    fn into_inner(self) -> HttpError {
        match self {
            ExchangeError::Retriable(e) | ExchangeError::Fatal(e) => e,
        }
    }
}

/// Error kinds that mean the pooled socket died while idle — the
/// request never made it to the server.
fn is_stale_socket_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::UnexpectedEof
    )
}
