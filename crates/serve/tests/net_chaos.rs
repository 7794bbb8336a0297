//! Network chaos: the connection state machine under scripted faults,
//! trace stitching across the network hop, graceful drain over real TCP,
//! and a loopback smoke of the full status-code surface.
//!
//! The in-memory suite is fully deterministic: same seed, same fault
//! plan → the identical sequence of typed outcomes, byte for byte. The
//! TCP tests assert invariants (every written request gets an answer,
//! drain drops nothing) rather than timings.

#![allow(clippy::expect_used)]

use std::sync::Arc;
use std::time::Duration;

use pup_ckpt::chaos::FaultPlan;
use pup_obs::trace::{tree_shape, TraceSink};
use pup_serve::net::conn::NET_TRACE_BASE;
use pup_serve::net::{
    handle_connection, HttpClient, MemTransport, NetConfig, NetShared, TenantConfig,
};
use pup_serve::{
    Fallback, Gateway, GenScorerFactory, ScoreError, Scorer, ServeConfig, Server, ServiceShared,
};

const N_USERS: usize = 8;
const N_ITEMS: usize = 6;

struct Linear;

impl Scorer for Linear {
    fn name(&self) -> &str {
        "linear"
    }
    fn n_items(&self) -> usize {
        N_ITEMS
    }
    fn score(&self, user: usize) -> Result<Vec<f64>, ScoreError> {
        if user >= N_USERS {
            return Err(ScoreError::UserOutOfRange { user, n_users: N_USERS });
        }
        Ok((0..N_ITEMS).map(|i| ((i * 7 + user) % N_ITEMS) as f64).collect())
    }
}

fn fallback() -> Fallback {
    Fallback::from_train(N_USERS, N_ITEMS, &[(0, 1), (1, 2), (2, 3), (3, 2)]).expect("fallback")
}

fn start(shared: &Arc<ServiceShared>) -> Server {
    let factory: GenScorerFactory = Arc::new(|_gen| Ok(Box::new(Linear)));
    Server::start_with_generations(Arc::clone(shared), factory).expect("server starts")
}

fn tenant(rate: u64, burst: u64) -> TenantConfig {
    TenantConfig { name: "t".into(), key: "k1".into(), rate_per_sec: rate, burst }
}

fn request_bytes(user: usize) -> Vec<u8> {
    format!(
        "GET /recommend?user={user}&k=3 HTTP/1.1\r\nhost: pup\r\nx-api-key: k1\r\nconnection: close\r\n\r\n"
    )
    .into_bytes()
}

/// Drives `conns` scripted in-memory connections through the full state
/// machine under `plan`'s network faults and returns the canonical
/// outcome trace plus the availability observed.
fn run_mem_chaos(plan: FaultPlan, conns: u64, seed: u64) -> (Vec<String>, f64) {
    let cfg = ServeConfig { workers: 2, ..ServeConfig::default() };
    let shared = Arc::new(ServiceShared::with_faults(cfg, fallback(), N_USERS, plan));
    let server = start(&shared);
    let net_cfg = NetConfig {
        idle_timeout_ns: 1_000_000, // 1ms idle budget: scripted stalls exceed it
        tenants: vec![tenant(1_000, 64)],
        ..NetConfig::default()
    };
    let net = NetShared::new(net_cfg, Arc::clone(&shared));
    let mut tokens = Vec::new();
    for conn in 0..conns {
        let faults = shared.faults.next_conn();
        // Arrival times advance one per connection on a seeded grid — the
        // rate limiter sees the same timestamps every run.
        let arrival_ns = (seed + conn) * 250_000;
        let user = (conn as usize * 3 + seed as usize) % N_USERS;
        let mut transport = MemTransport::request(&request_bytes(user), faults);
        let report = handle_connection(&net, &server, &mut transport, conn, arrival_ns);
        tokens.push(report.trace_token());
    }
    let availability = net.stats.report().availability();
    server.shutdown();
    (tokens, availability)
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .with_torn_reads([1, 4, 7, 10])
        .with_client_stalls([(2, 5_000_000), (8, 9_000_000)]) // > 1ms idle budget
        .with_disconnects([5, 11])
}

/// The tentpole determinism gate: same seed + same fault plan must replay
/// the identical sequence of typed outcomes — connection by connection,
/// token by token.
#[test]
fn same_seed_chaos_replays_identical_outcome_sequences() {
    let (a, avail_a) = run_mem_chaos(chaos_plan(), 16, 3);
    let (b, avail_b) = run_mem_chaos(chaos_plan(), 16, 3);
    assert_eq!(a, b, "typed outcome sequences must replay identically");
    assert_eq!(avail_a, avail_b);

    // And the faults actually fired as typed outcomes, not crashes:
    // stalled conns 2 and 8 hit the idle budget (408), disconnected conns
    // 5 and 11 are client-gone, torn conns still parse to 200.
    assert!(a[2].contains("408:idle-timeout"), "conn 2 stalled: {}", a[2]);
    assert!(a[8].contains("408:idle-timeout"), "conn 8 stalled: {}", a[8]);
    assert!(a[5].contains("gone:"), "conn 5 disconnected: {}", a[5]);
    assert!(a[11].contains("gone:"), "conn 11 disconnected: {}", a[11]);
    for torn in [1usize, 4, 7, 10] {
        assert!(a[torn].contains("200:ok"), "torn conn {torn} still parses: {}", a[torn]);
    }

    // Availability gate: every request whose client stayed connected was
    // answered with a typed status.
    assert!(avail_a >= 0.99, "availability {avail_a} under injected network faults");
}

#[test]
fn different_fault_plans_produce_different_outcome_sequences() {
    let (a, _) = run_mem_chaos(chaos_plan(), 16, 3);
    let (b, _) = run_mem_chaos(FaultPlan::none(), 16, 3);
    assert_ne!(a, b, "the fault plan must be observable in the outcome trace");
    assert!(b.iter().all(|t| t.contains("200:ok")), "clean plan answers everything: {b:?}");
}

/// Rate limiting happens at the front door with virtual arrival time: a
/// burst beyond the bucket gets typed `429`s in a deterministic pattern.
#[test]
fn rate_limiter_sheds_bursts_deterministically() {
    let run = || {
        let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback(), N_USERS));
        let server = start(&shared);
        let net_cfg = NetConfig {
            tenants: vec![tenant(10, 3)], // 10 rps, burst 3
            ..NetConfig::default()
        };
        let net = NetShared::new(net_cfg, Arc::clone(&shared));
        let mut tokens = Vec::new();
        for conn in 0..8u64 {
            // All eight requests arrive within one bucket refill window.
            let mut t = MemTransport::request(
                &request_bytes(conn as usize % N_USERS),
                shared.faults.next_conn(),
            );
            let report = handle_connection(&net, &server, &mut t, conn, conn * 1_000);
            tokens.push(report.trace_token());
        }
        let limited = net.stats.report().rate_limited;
        server.shutdown();
        (tokens, limited)
    };
    let (a, limited_a) = run();
    let (b, limited_b) = run();
    assert_eq!(a, b, "429 pattern is a pure function of the arrival schedule");
    assert_eq!(limited_a, limited_b);
    assert_eq!(limited_a, 5, "burst of 3 admitted, remaining 5 limited: {a:?}");
    assert!(a[0].contains("200:ok") && a[3].contains("429:rate-limited"), "{a:?}");
}

/// The network hop joins the engine's trace: accept → parse / request
/// (queue, score, rank, respond) / write, all under one network trace id.
#[test]
fn network_requests_stitch_one_trace_tree() {
    let mut shared = ServiceShared::new(
        ServeConfig { workers: 1, ..ServeConfig::default() },
        fallback(),
        N_USERS,
    );
    shared.enable_tracing(TraceSink::new());
    let shared = Arc::new(shared);
    let server = start(&shared);
    let net = NetShared::new(NetConfig::default(), Arc::clone(&shared));
    let mut t = MemTransport::request(&request_bytes(1), shared.faults.next_conn());
    let report = handle_connection(&net, &server, &mut t, 0, 0);
    assert!(report.trace_token().contains("200:ok"), "{report:?}");
    server.shutdown();

    let spans = shared.tracer.as_ref().expect("tracer attached").snapshot_spans();
    let shape = tree_shape(&spans, NET_TRACE_BASE);
    assert_eq!(
        shape,
        "accept\n  parse\n  request\n    queue\n    score\n      rank\n    respond\n  write\n",
        "the network hop and the engine must share one stitched tree"
    );
}

/// Graceful drain over real TCP: requests in flight when the drain lands
/// are finished, later requests get a typed `503 draining`, and nothing
/// hangs or is silently dropped.
#[test]
fn graceful_drain_drops_no_in_flight_request() {
    let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback(), N_USERS));
    let server = start(&shared);
    let gateway = Gateway::start(NetConfig::default(), server).expect("gateway binds");
    let addr = gateway.local_addr();

    // Three keep-alive clients, each with one completed exchange — all
    // three connections are owned by workers inside the keep-alive loop.
    let mut clients: Vec<HttpClient> =
        (0..3).map(|_| HttpClient::connect(addr, 2_000_000_000).expect("connect")).collect();
    for (i, c) in clients.iter_mut().enumerate() {
        let (status, body) = c.get(&format!("/recommend?user={i}&k=3"), None).expect("exchange");
        assert_eq!(status, 200, "{body}");
    }

    // Write the next request on every connection, then drain mid-flight.
    for (i, c) in clients.iter_mut().enumerate() {
        c.send_request(&format!("/recommend?user={i}&k=3"), None, false).expect("send");
    }
    gateway.drain();

    // Every written request still gets a complete, typed answer: 200 if
    // it was dispatched before the flag landed, 503 draining after.
    for c in &mut clients {
        let (status, body) = c.read_response().expect("drain never drops an in-flight request");
        assert!(
            status == 200 || status == 503,
            "in-flight request answered with unexpected {status}: {body}"
        );
    }
    drop(clients);

    let (net_report, serve_report) = gateway.shutdown();
    assert_eq!(net_report.client_gone, 0, "no client was abandoned: {net_report:?}");
    assert_eq!(net_report.requests, 6);
    assert_eq!(net_report.responded(), 6, "all six requests answered: {net_report:?}");
    assert_eq!(
        serve_report.admitted,
        serve_report.primary + serve_report.degraded(),
        "engine answered everything it admitted"
    );
}

/// A drain requested over HTTP (`GET /admin/drain`) raises the flag
/// without waking the acceptor, which is parked in a blocking
/// `accept()`. `shutdown` must still poke it awake and join — a
/// regression here hangs shutdown forever after an HTTP-initiated
/// drain.
#[test]
fn drain_via_admin_endpoint_unblocks_shutdown() {
    let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback(), N_USERS));
    let server = start(&shared);
    let gateway = Gateway::start(NetConfig::default(), server).expect("gateway binds");
    let addr = gateway.local_addr();

    let mut client = HttpClient::connect(addr, 2_000_000_000).expect("connect");
    let (status, body) = client.get("/admin/drain", None).expect("drain exchange");
    assert_eq!(status, 200, "{body}");
    drop(client);
    assert!(gateway.is_draining(), "admin drain raises the flag");

    let (net_report, _serve_report) = gateway.shutdown();
    assert_eq!(net_report.responded(), 1, "the drain request itself was answered");
}

/// Loopback smoke: the full status-code surface over a real socket —
/// auth, rate limiting, routing, malformed frames, oversized frames.
#[test]
fn tcp_loopback_serves_the_full_status_surface() {
    let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback(), N_USERS));
    let server = start(&shared);
    let net_cfg = NetConfig { tenants: vec![tenant(1_000, 100)], ..NetConfig::default() };
    let gateway = Gateway::start(net_cfg, server).expect("gateway binds");
    let addr = gateway.local_addr();
    let timeout = 2_000_000_000u64;

    let mut c = HttpClient::connect(addr, timeout).expect("connect");
    let (status, body) = c.get("/health", None).expect("health");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");

    // Keep-alive: same connection, authenticated recommend.
    let (status, body) = c.get("/recommend?user=2&k=4", Some("k1")).expect("recommend");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"items\":["), "{body}");

    let (status, _) = c.get("/recommend?user=2", None).expect("no key");
    assert_eq!(status, 401);
    drop(c);

    let mut c = HttpClient::connect(addr, timeout).expect("connect");
    let (status, _) = c.get("/recommend?user=2", Some("wrong")).expect("bad key");
    assert_eq!(status, 401);
    let (status, _) = c.get("/recommend?user=oops", Some("k1")).expect("bad query");
    assert_eq!(status, 400);
    let (status, _) = c.get("/recommend?user=99999&k=3", Some("k1")).expect("unknown user");
    assert_eq!(status, 404);
    let (status, _) = c.get("/nowhere", Some("k1")).expect("bad route");
    assert_eq!(status, 404);
    drop(c);

    // Malformed request line → typed 400, connection closed.
    let mut c = HttpClient::connect(addr, timeout).expect("connect");
    c.send_raw(b"NONSENSE\r\n\r\n").expect("send raw");
    let (status, _) = c.read_response().expect("malformed still answered");
    assert_eq!(status, 400);
    drop(c);

    // Oversized request line → typed 414 while the bytes still stream.
    let mut c = HttpClient::connect(addr, timeout).expect("connect");
    let mut big = b"GET /".to_vec();
    big.extend(std::iter::repeat_n(b'x', 5_000));
    big.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    c.send_raw(&big).expect("send oversized");
    let (status, _) = c.read_response().expect("oversized still answered");
    assert_eq!(status, 414);
    drop(c);

    // A client that vanishes mid-exchange is typed, not fatal.
    let c = HttpClient::connect(addr, timeout).expect("connect");
    c.send_and_abort("/recommend?user=1&k=2", Some("k1")).expect("abort");

    // A cooperative slow client within the idle budget still succeeds.
    let mut c = HttpClient::connect(addr, timeout).expect("connect");
    c.send_request_slowly("/recommend?user=3&k=2", Some("k1"), Duration::from_millis(20))
        .expect("slow send");
    let (status, _) = c.read_response().expect("slow client answered");
    assert_eq!(status, 200);
    drop(c);

    let (net_report, _serve_report) = gateway.shutdown();
    assert!(net_report.responded() >= 10, "{net_report:?}");
    assert!(net_report.availability() >= 0.99, "{net_report:?}");
    assert_eq!(net_report.conns_shed, 0, "{net_report:?}");
}

/// Backlog shedding: with one busy worker and a single backlog slot, a
/// third connection is refused at the door with a minimal `503`.
#[test]
fn acceptor_sheds_over_capacity_connections_with_503() {
    let shared = Arc::new(ServiceShared::new(ServeConfig::default(), fallback(), N_USERS));
    let server = start(&shared);
    let net_cfg = NetConfig {
        max_conns: 1,
        backlog: 1,
        idle_timeout_ns: 400_000_000, // free the busy worker in 0.4s
        ..NetConfig::default()
    };
    let gateway = Gateway::start(net_cfg, server).expect("gateway binds");
    let addr = gateway.local_addr();

    // Occupy the only worker: a completed exchange parks the connection
    // in its keep-alive read.
    let mut busy = HttpClient::connect(addr, 2_000_000_000).expect("connect");
    let (status, _) = busy.get("/recommend?user=0&k=2", None).expect("exchange");
    assert_eq!(status, 200);

    // Fill the single backlog slot, then overflow it. The overflow must
    // be answered 503 by the acceptor itself — queueing is bounded.
    let parked = HttpClient::connect(addr, 2_000_000_000).expect("parked connect");
    let mut shed = HttpClient::connect(addr, 2_000_000_000).expect("shed connect");
    let (status, body) = shed.read_response().expect("shed connection gets a typed refusal");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("shed-over-capacity"), "{body}");

    drop(parked);
    drop(busy);
    let (net_report, _) = gateway.shutdown();
    assert!(net_report.conns_shed >= 1, "{net_report:?}");
}
