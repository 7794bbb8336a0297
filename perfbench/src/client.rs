//! The load generator: seeded open-loop schedules and a keep-alive HTTP
//! client pool that honours `connection: close`.
//!
//! Each client thread owns one keep-alive connection and takes the next
//! due arrival whenever it is free, so the pool behaves like a browser's
//! connection pool: when both connections are busy, arrivals wait, and
//! that wait is charged to the request because latency runs from the due
//! time. The generator's own lateness (sleeping past a due time while a
//! connection was free) is measured separately.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};

use crate::workloads::{CLIENTS, K};

/// One scheduled request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Due time, ns from the start of the phase.
    pub due_ns: u64,
    /// User to recommend for.
    pub user: u32,
}

/// Seeded open-loop Poisson schedule: `n` arrivals at mean `rate_rps`,
/// users drawn Zipf(`zipf`) over a seeded permutation of `0..n_users`.
pub fn schedule(seed: u64, n: usize, rate_rps: f64, n_users: usize, zipf: f64) -> Vec<Arrival> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_users = n_users.max(1);
    // Rank -> user: a seeded shuffle, so the hot users are not simply the
    // lowest ids.
    let mut perm: Vec<u32> = (0..n_users as u32).collect();
    for i in (1..perm.len()).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut cdf = Vec::with_capacity(n_users);
    let mut total = 0.0;
    for rank in 0..n_users {
        total += 1.0 / ((rank + 1) as f64).powf(zipf);
        cdf.push(total);
    }
    let mean_gap_ns = 1e9 / rate_rps;
    let mut out = Vec::with_capacity(n);
    let mut now = 0.0f64;
    while out.len() < n {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        now += -u.ln() * mean_gap_ns;
        let x = rng.gen::<f64>() * total;
        let rank = cdf.partition_point(|&c| c < x).min(n_users - 1);
        out.push(Arrival { due_ns: now as u64, user: perm[rank] });
    }
    // Pin the mean rate: stretch the schedule so it spans exactly
    // `n / rate`, keeping the Poisson shape of the gaps. A short phase
    // then offers the rate it names, not that rate plus sampling noise.
    let span = out.last().map_or(0, |a| a.due_ns).max(1) as f64;
    let stretch = (n as f64 / rate_rps * 1e9) / span;
    for a in &mut out {
        a.due_ns = (a.due_ns as f64 * stretch) as u64;
    }
    out
}

/// Digest of a schedule, for the same-seed self-check.
pub fn schedule_digest(plan: &[Arrival]) -> u64 {
    let mut h = crate::stats::FNV_SEED;
    for a in plan {
        h = crate::stats::fnv1a(h, &a.due_ns.to_le_bytes());
        h = crate::stats::fnv1a(h, &a.user.to_le_bytes());
    }
    h
}

/// A parsed response.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// The server asked to close the connection.
    pub close: bool,
    /// Response body.
    pub body: String,
}

/// Numbers connections in the order the gateway accepts them. Connects
/// are serialised under one lock, so handshakes complete — and the
/// gateway's acceptor numbers them — in the same order as this counter.
/// That lets a traced run match a client request to its server trace.
#[derive(Debug, Default)]
pub struct ConnCounter {
    next: Mutex<u64>,
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Gateway-side connection sequence number.
    pub seq: u64,
    /// Requests already sent on this connection.
    pub served: u32,
    buf: Vec<u8>,
}

const IO_TIMEOUT: Duration = Duration::from_secs(30);

impl Conn {
    /// Opens a connection and numbers it.
    pub fn connect(addr: SocketAddr, counter: &ConnCounter) -> io::Result<Conn> {
        let mut next = counter.next.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let stream = TcpStream::connect(addr)?;
        let seq = *next;
        *next += 1;
        drop(next);
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Conn { stream, seq, served: 0, buf: Vec::with_capacity(4096) })
    }

    /// Sends one `GET` and reads the whole response.
    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        let req = format!("GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n");
        self.served += 1;
        self.stream.write_all(req.as_bytes())?;
        self.read_reply()
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.lines();
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut len = 0usize;
        let mut close = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else { continue };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                len = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
        let mut body = self.buf[head_end + 4..].to_vec();
        while body.len() < len {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(len);
        Ok(Reply { status, close, body: String::from_utf8_lossy(&body).into_owned() })
    }
}

/// What happened to one scheduled request. Times are ns from the phase
/// epoch.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Index into the schedule.
    pub idx: usize,
    /// User asked for.
    pub user: u32,
    /// Due time.
    pub due_ns: u64,
    /// When a connection became free to take this request.
    pub free_ns: u64,
    /// When the request's first byte was written.
    pub sent_ns: u64,
    /// When the response was fully read.
    pub done_ns: u64,
    /// HTTP status; 0 for a transport error.
    pub status: u16,
    /// Response body (200 only).
    pub body: Option<String>,
    /// Gateway connection sequence and request index on it.
    pub conn: (u64, u32),
}

impl Outcome {
    /// Client latency from the due time, in ms.
    pub fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// The generator's own lateness: sleeping past the due time while a
    /// connection was already free, in ms.
    pub fn gen_lateness_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns.max(self.free_ns)) as f64 / 1e6
    }
}

/// Counters of one drive.
#[derive(Debug, Default)]
pub struct DriveStats {
    /// Reconnects after the server closed a keep-alive connection.
    pub reconnects: AtomicU64,
    /// Transport errors (each also forces a reconnect).
    pub transport_errors: AtomicU64,
}

/// Replays `plan` against `addr` from [`CLIENTS`] threads, asking for the
/// top [`K`] items. `epoch` is the
/// phase's time zero; `stop`, when set, ends the drive early (used to run
/// load only until a swap completes). Returns outcomes in schedule order.
pub fn drive(
    addr: SocketAddr,
    plan: &[Arrival],
    epoch: Instant,
    counter: &ConnCounter,
    stats: &DriveStats,
    stop: Option<&AtomicBool>,
    sent: Option<&AtomicUsize>,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let mut all: Vec<Outcome> = Vec::with_capacity(plan.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn: Option<Conn> = None;
                    loop {
                        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
                            break;
                        }
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(a) = plan.get(idx) else { break };
                        let free_ns = ns(Instant::now());
                        if a.due_ns > free_ns {
                            std::thread::sleep(Duration::from_nanos(a.due_ns - free_ns));
                        }
                        if let Some(s) = sent {
                            s.fetch_add(1, Ordering::Relaxed);
                        }
                        let target = format!("/recommend?user={}&k={K}", a.user);
                        let mut o = Outcome {
                            idx,
                            user: a.user,
                            due_ns: a.due_ns,
                            free_ns,
                            sent_ns: 0,
                            done_ns: 0,
                            status: 0,
                            body: None,
                            conn: (0, 0),
                        };
                        let c = match conn.take() {
                            Some(c) => Ok(c),
                            None => Conn::connect(addr, counter),
                        };
                        o.sent_ns = ns(Instant::now());
                        match c {
                            Ok(mut c) => {
                                o.conn = (c.seq, c.served);
                                match c.get(&target) {
                                    Ok(reply) => {
                                        o.status = reply.status;
                                        if reply.status == 200 {
                                            o.body = Some(reply.body);
                                        }
                                        if reply.close {
                                            stats.reconnects.fetch_add(1, Ordering::Relaxed);
                                        } else {
                                            conn = Some(c);
                                        }
                                    }
                                    Err(_) => {
                                        stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                            Err(_) => {
                                stats.transport_errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        o.done_ns = ns(Instant::now());
                        out.push(o);
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
    });
    all.sort_by_key(|o| o.idx);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = schedule(3, 500, 100.0, 50, 1.0);
        let b = schedule(3, 500, 100.0, 50, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, schedule(4, 500, 100.0, 50, 1.0));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let rate = 500.0 / (a[499].due_ns as f64 / 1e9);
        assert!((rate - 100.0).abs() < 1e-6, "mean rate {rate}");
    }
}
