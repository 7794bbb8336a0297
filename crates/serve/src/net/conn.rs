//! The per-connection state machine: parse → authenticate → rate-limit →
//! admit → respond.
//!
//! [`handle_connection`] is generic over [`Transport`], so the exact same
//! code path serves a real socket and a scripted in-memory connection.
//! Its contract mirrors the engine's: every request read off the wire is
//! answered with a status code or the peer is provably gone — never a
//! panic, never a hang (every read and write is armed with a timeout or
//! charged virtually), never an unbounded buffer (the parser enforces
//! [`HttpLimits`](super::HttpLimits) while bytes accumulate).
//!
//! Time works like everywhere else in this crate: real elapsed time plus
//! virtual nanoseconds. A slowloris client scripted to stall is *charged*
//! the stall against the idle and deadline budgets without any sleeping,
//! so the chaos suite replays byte-identical outcome sequences.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pup_obs::trace::{TraceContext, TraceId};

use crate::deadline::Deadline;
use crate::engine::ServiceShared;
use crate::server::Server;
use crate::{Request, Response, ServeError};

use super::gateway::NetConfig;
use super::http::{HttpParser, HttpRequest};
use super::ratelimit::{Admit, RateLimiter};
use super::transport::Transport;
use super::{NetError, NetStats};

/// Network trace ids live far above admission-sequence ids so the two
/// spaces never collide in one sink: trace `NET_TRACE_BASE + conn*4096 +
/// n` is the `n`-th request of connection `conn`.
pub const NET_TRACE_BASE: u64 = 1 << 40;

/// Everything the connection state machine shares across connections:
/// config, limiter, counters, the engine, and the drain flag. One per
/// gateway; `Send + Sync` by construction.
pub struct NetShared {
    /// Gateway tunables (limits, timeouts, keep-alive policy).
    pub cfg: NetConfig,
    /// Per-tenant authentication and rate limiting.
    pub limiter: RateLimiter,
    /// Wire-level counters.
    pub stats: NetStats,
    /// The scoring engine behind the front door.
    pub engine: Arc<ServiceShared>,
    draining: AtomicBool,
}

impl NetShared {
    /// Assembles the shared state for one gateway.
    pub fn new(cfg: NetConfig, engine: Arc<ServiceShared>) -> Self {
        let limiter = RateLimiter::new(cfg.tenants.clone());
        Self { cfg, limiter, stats: NetStats::new(), engine, draining: AtomicBool::new(false) }
    }

    /// Whether a drain has been requested (by [`request_drain`] or the
    /// gateway's shutdown).
    ///
    /// [`request_drain`]: Self::request_drain
    pub fn is_draining(&self) -> bool {
        // Qualified call: the token-based call-graph audit would alias a
        // bare `.load(…)` to the workspace's checkpoint-loading fns.
        AtomicBool::load(&self.draining, Ordering::Acquire)
    }

    /// Flags the gateway as draining: existing requests finish, new ones
    /// are answered `503`, and the accept loop stops at its next wakeup.
    pub fn request_drain(&self) {
        self.draining.store(true, Ordering::Release);
    }
}

/// How one request on a connection ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnOutcome {
    /// A response with this status was fully written to the peer.
    Responded {
        /// Status code written.
        status: u16,
        /// Stable label of the outcome (route or error).
        label: &'static str,
    },
    /// The peer vanished (disconnect, reset, failed write) before a
    /// response could be delivered.
    ClientGone {
        /// Stable label of what was observed.
        label: &'static str,
    },
}

impl ConnOutcome {
    /// Canonical `status:label` token, the unit of the deterministic
    /// chaos traces.
    pub fn token(&self) -> String {
        match self {
            Self::Responded { status, label } => format!("{status}:{label}"),
            Self::ClientGone { label } => format!("gone:{label}"),
        }
    }
}

/// Everything one connection did, in request order.
#[derive(Clone, Debug)]
pub struct ConnReport {
    /// The connection's arrival sequence number.
    pub conn: u64,
    /// Per-request outcomes, oldest first.
    pub outcomes: Vec<ConnOutcome>,
}

impl ConnReport {
    /// The connection's outcome trace, e.g. `"7[200:ok 429:rate-limited]"`.
    pub fn trace_token(&self) -> String {
        let tokens: Vec<String> = self.outcomes.iter().map(ConnOutcome::token).collect();
        format!("{}[{}]", self.conn, tokens.join(" "))
    }
}

/// Serves one connection to completion: reads requests (keep-alive aware)
/// until the peer closes, an error closes it, or the keep-alive budget is
/// spent. This is the gateway's hot path — certified panic-free with a
/// ratcheted lock budget and a measured allocation count, and the root of
/// the stitched accept→parse→queue→score→rank→write trace.
// pup-hot: net-conn
pub fn handle_connection<T: Transport>(
    net: &NetShared,
    server: &Server,
    transport: &mut T,
    conn_seq: u64,
    arrival_ns: u64,
) -> ConnReport {
    let mut outcomes = Vec::new();
    let mut parser = HttpParser::new(net.cfg.limits.clone());
    let keep_alive_max = net.cfg.keep_alive_max.max(1);
    for served in 0..keep_alive_max {
        let trace = TraceId(NET_TRACE_BASE + conn_seq.saturating_mul(4096) + served as u64);
        let accept_span = net.engine.root_ctx(trace).span("accept");
        let accept_ctx = accept_span.ctx();
        let parse_span = accept_ctx.span("parse");
        let mut deadline: Option<Deadline> = None;
        let read = read_request(net, transport, &mut parser, &mut deadline);
        drop(parse_span);
        match read {
            Ok(None) => break, // clean close between requests
            Ok(Some(req)) => {
                net.stats.note_request();
                let deadline = match deadline {
                    Some(d) => d,
                    None => Deadline::new(net.engine.cfg.deadline_ns),
                };
                let last = served + 1 == keep_alive_max;
                let (status, label, body, close) =
                    dispatch(net, server, &req, &accept_ctx, deadline, arrival_ns, last);
                let outcome = respond(net, transport, &accept_ctx, status, label, &body, close);
                let gone = matches!(outcome, ConnOutcome::ClientGone { .. });
                outcomes.push(outcome);
                if close || gone {
                    break;
                }
            }
            Err(e) => {
                net.stats.note_request();
                if matches!(e, NetError::IdleTimeout | NetError::RequestDeadline) {
                    net.stats.note_timeout();
                }
                let outcome = match e.status() {
                    Some(status) => {
                        let body = error_body(status, e.label());
                        respond(net, transport, &accept_ctx, status, e.label(), &body, true)
                    }
                    None => {
                        net.stats.note_client_gone();
                        ConnOutcome::ClientGone { label: e.label() }
                    }
                };
                outcomes.push(outcome);
                break; // every read error closes the connection
            }
        }
    }
    ConnReport { conn: conn_seq, outcomes }
}

/// Reads bytes until the parser completes one request. The per-request
/// [`Deadline`] starts at the first byte; injected stalls are charged
/// against it and against the idle budget (the slowloris defense:
/// progress, not connection age, is what buys a client time).
fn read_request<T: Transport>(
    net: &NetShared,
    transport: &mut T,
    parser: &mut HttpParser,
    deadline: &mut Option<Deadline>,
) -> Result<Option<HttpRequest>, NetError> {
    let idle_ns = net.cfg.idle_timeout_ns.max(1);
    let mut chunk = [0u8; 2048];
    loop {
        if let Some(req) = parser.next_request()? {
            if deadline.is_none() {
                *deadline = Some(Deadline::new(net.engine.cfg.deadline_ns));
            }
            return Ok(Some(req));
        }
        match deadline {
            Some(d) => {
                if d.exceeded() {
                    return Err(NetError::RequestDeadline);
                }
                let arm = idle_ns.min(d.remaining_ns().max(1));
                transport.set_read_timeout_ns(Some(arm)).map_err(|e| NetError::Io(e.kind()))?;
            }
            None => {
                transport.set_read_timeout_ns(Some(idle_ns)).map_err(|e| NetError::Io(e.kind()))?;
            }
        }
        match transport.read(&mut chunk) {
            Ok(0) => {
                return if deadline.is_none() && parser.buffered() == 0 {
                    Ok(None) // peer closed between requests: clean
                } else {
                    Err(NetError::Disconnected) // EOF mid-request
                };
            }
            Ok(n) => {
                if deadline.is_none() {
                    *deadline = Some(Deadline::new(net.engine.cfg.deadline_ns));
                }
                let stalled = transport.take_virtual_ns();
                if stalled > 0 {
                    if let Some(d) = deadline {
                        d.charge_virtual(stalled);
                    }
                    if stalled >= idle_ns {
                        // The gap between reads exceeded the idle budget:
                        // a real socket would have timed out mid-stall.
                        return Err(NetError::IdleTimeout);
                    }
                }
                if let Some(req) = parser.feed(chunk.get(..n).unwrap_or_default())? {
                    return Ok(Some(req));
                }
            }
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                return if deadline.is_none() && parser.buffered() == 0 {
                    Ok(None) // keep-alive idle expiry: close quietly
                } else {
                    Err(NetError::IdleTimeout)
                };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset
                        | io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::BrokenPipe
                        | io::ErrorKind::UnexpectedEof
                ) =>
            {
                return if deadline.is_none() && parser.buffered() == 0 {
                    Ok(None)
                } else {
                    Err(NetError::Disconnected)
                };
            }
            Err(e) => return Err(NetError::Io(e.kind())),
        }
    }
}

/// Routes one parsed request and produces `(status, label, body,
/// close_after)`. Admission into the engine happens here, *after* the
/// tenant's token bucket agreed — a rate-limited request never occupies a
/// queue slot.
fn dispatch(
    net: &NetShared,
    server: &Server,
    req: &HttpRequest,
    accept_ctx: &TraceContext,
    deadline: Deadline,
    arrival_ns: u64,
    last_on_conn: bool,
) -> (u16, &'static str, String, bool) {
    let close_hint = req.wants_close() || last_on_conn || net.is_draining();
    match req.path() {
        "/health" => {
            let body = format!(
                "{{\"status\":\"ok\",\"generation\":{},\"draining\":{}}}",
                net.engine.swap.active_gen(),
                net.is_draining()
            );
            (200, "health", body, close_hint)
        }
        "/recommend" => {
            if net.is_draining() {
                let e = NetError::Draining;
                return (503, e.label(), error_body(503, e.label()), true);
            }
            match authenticate(net, req, arrival_ns) {
                Ok(_) => {}
                Err(e) => {
                    let status = e.status().unwrap_or(500);
                    return (status, e.label(), error_body(status, e.label()), close_hint);
                }
            }
            let Some(user) = req.query_param("user").and_then(|v| v.parse::<usize>().ok()) else {
                let e = NetError::BadQuery;
                return (400, e.label(), error_body(400, e.label()), close_hint);
            };
            let k = req
                .query_param("k")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(10)
                .clamp(1, 1000);
            match server.submit_traced(Request { user, k }, accept_ctx, deadline) {
                Ok(handle) => match handle.wait() {
                    Ok(resp) => (200, "ok", response_body(&resp), close_hint),
                    Err(e) => serve_error_response(&e, close_hint),
                },
                Err(e) => serve_error_response(&e, close_hint),
            }
        }
        "/admin/drain" => {
            if let Err(e) = authenticate(net, req, arrival_ns) {
                let status = e.status().unwrap_or(500);
                return (status, e.label(), error_body(status, e.label()), close_hint);
            }
            net.request_drain();
            (200, "drain", "{\"draining\":true}".to_string(), true)
        }
        _ => {
            let e = NetError::NotFound;
            (404, e.label(), error_body(404, e.label()), close_hint)
        }
    }
}

/// Checks the `x-api-key` header against the tenant registry and the
/// tenant's token bucket at the connection's arrival timestamp. The
/// timestamp is supplied by the caller (real elapsed time on the gateway,
/// virtual time in chaos tests) so the 429 sequence is deterministic for
/// a deterministic schedule.
fn authenticate(net: &NetShared, req: &HttpRequest, arrival_ns: u64) -> Result<(), NetError> {
    match net.limiter.check(req.header("x-api-key"), arrival_ns) {
        Admit::Ok(_) => Ok(()),
        Admit::UnknownKey => Err(NetError::Unauthorized),
        Admit::Limited(_) => Err(NetError::RateLimited),
    }
}

/// Maps a typed engine rejection onto a status line.
fn serve_error_response(e: &ServeError, close: bool) -> (u16, &'static str, String, bool) {
    let (status, label) = match e {
        ServeError::QueueFull { .. } => (503, "queue-full"),
        ServeError::DeadlineExceeded { .. } => (504, "deadline-exceeded"),
        ServeError::Score(pup_models::ScoreError::UserOutOfRange { .. }) => (404, "unknown-user"),
        ServeError::Score(_) => (400, "bad-request"),
        ServeError::Shutdown => (503, "shutdown"),
        ServeError::WorkerInit(_) | ServeError::ChannelClosed => (500, "internal"),
    };
    // 5xx responses close: the connection's queue slot is better spent on
    // a client the service can actually answer right now.
    (status, label, error_body(status, label), close || status >= 500)
}

fn response_body(resp: &Response) -> String {
    let items: Vec<String> = resp.items.iter().map(|i| i.to_string()).collect();
    format!(
        "{{\"user\":{},\"source\":\"{}\",\"latency_ns\":{},\"items\":[{}]}}",
        resp.user,
        resp.source.label(),
        resp.latency_ns,
        items.join(",")
    )
}

fn error_body(status: u16, label: &str) -> String {
    format!("{{\"error\":\"{label}\",\"status\":{status}}}")
}

/// Writes the response and records the outcome. A failed write means the
/// peer is gone: counted, labeled, never retried.
fn respond<T: Transport>(
    net: &NetShared,
    transport: &mut T,
    accept_ctx: &TraceContext,
    status: u16,
    label: &'static str,
    body: &str,
    close: bool,
) -> ConnOutcome {
    let write_span = accept_ctx.span("write");
    let result = write_response(transport, status, body, close);
    drop(write_span);
    match result {
        Ok(()) => {
            net.stats.note_status(status);
            if status == 429 {
                net.stats.note_rate_limited();
            }
            if status == 401 {
                net.stats.note_unauthorized();
            }
            ConnOutcome::Responded { status, label }
        }
        Err(e) => {
            net.stats.note_client_gone();
            ConnOutcome::ClientGone { label: e.label() }
        }
    }
}

fn write_response<T: Transport>(
    transport: &mut T,
    status: u16,
    body: &str,
    close: bool,
) -> Result<(), NetError> {
    let connection = if close { "close" } else { "keep-alive" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {connection}\r\n\r\n",
        status_text(status),
        body.len()
    );
    transport.write_all(head.as_bytes()).map_err(|_| NetError::WriteFailed)?;
    transport.write_all(body.as_bytes()).map_err(|_| NetError::WriteFailed)?;
    transport.flush().map_err(|_| NetError::WriteFailed)?;
    Ok(())
}

/// Reason phrases for every status this server writes.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}
