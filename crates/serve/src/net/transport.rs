//! The byte transport the connection state machine runs on.
//!
//! [`Transport`] is the only thing `conn::handle_connection` knows about
//! the outside world: a `Read + Write` pair with a settable read timeout
//! and a virtual-stall meter. That makes the whole
//! parse→authenticate→rate-limit→admit→respond path testable without a
//! socket: [`MemTransport`] scripts a connection's inbound bytes — torn
//! into single-byte reads, stalled for virtual nanoseconds, or cut off
//! mid-stream — from the same consume-once [`ConnFaults`] the chaos plans
//! produce, while [`TcpTransport`] is the thin real-socket adapter used in
//! production and loopback smoke tests.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::faults::ConnFaults;

/// A bidirectional byte stream with deadline support. The connection
/// state machine is generic over this, so network faults are injectable
/// in-memory and deterministic.
pub trait Transport: Read + Write {
    /// Sets the timeout for subsequent reads; `None` blocks forever.
    /// Real sockets map this to `SO_RCVTIMEO`; in-memory transports may
    /// ignore it (their stalls are virtual).
    fn set_read_timeout_ns(&mut self, ns: Option<u64>) -> io::Result<()>;

    /// Virtual nanoseconds of injected stall consumed since the last
    /// call. The connection charges these against its idle and deadline
    /// budgets exactly as if the time had really passed — without
    /// sleeping, so chaos tests stay instantaneous.
    fn take_virtual_ns(&mut self) -> u64 {
        0
    }
}

/// [`Transport`] over a real [`TcpStream`]. Write timeouts are armed once
/// at construction; read timeouts are (re-)armed per read phase by the
/// connection loop.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream, arming its write timeout so no response
    /// write can block the worker forever behind a dead peer.
    pub fn new(stream: TcpStream, write_timeout_ns: u64) -> io::Result<Self> {
        stream.set_write_timeout(Some(Duration::from_nanos(write_timeout_ns.max(1))))?;
        stream.set_read_timeout(Some(Duration::from_nanos(write_timeout_ns.max(1))))?;
        // Responses are small and latency-bound: leaving Nagle on costs a
        // delayed-ACK round trip (~40ms) per keep-alive exchange.
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }
}

impl Read for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

impl Write for TcpTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

impl Transport for TcpTransport {
    fn set_read_timeout_ns(&mut self, ns: Option<u64>) -> io::Result<()> {
        self.stream.set_read_timeout(ns.map(|n| Duration::from_nanos(n.max(1))))
    }
}

/// One scripted event on a [`MemTransport`]'s inbound side.
#[derive(Clone, Debug)]
pub enum MemEvent {
    /// Bytes the next read(s) deliver.
    Data(Vec<u8>),
    /// The client stalls for this many virtual nanoseconds before the
    /// next bytes arrive.
    Stall(u64),
    /// The connection is reset by the peer.
    Disconnect,
}

/// A deterministic in-memory [`Transport`]: inbound bytes come from a
/// scripted event queue, outbound bytes accumulate in [`written`]
/// (optionally failing after a scripted prefix, modelling a client that
/// disconnects mid-response).
///
/// [`written`]: MemTransport::written
#[derive(Debug, Default)]
pub struct MemTransport {
    events: VecDeque<MemEvent>,
    pending_virtual_ns: u64,
    /// Every byte successfully written by the server.
    pub written: Vec<u8>,
    write_fail_after: Option<usize>,
}

impl MemTransport {
    /// A transport that plays back the given inbound events.
    pub fn new(events: Vec<MemEvent>) -> Self {
        Self { events: events.into(), ..Self::default() }
    }

    /// Scripts a connection that sends `request` under the faults drawn
    /// for it:
    ///
    /// - `stall_ns` splits the bytes in half with a virtual stall between
    ///   them (a slowloris client);
    /// - `torn_read` delivers every byte as its own read;
    /// - `disconnect` delivers the request intact but resets the
    ///   connection after `8` response bytes (disconnect-mid-response).
    pub fn request(request: &[u8], faults: ConnFaults) -> Self {
        let mid = request.len() / 2;
        let halves: Vec<&[u8]> = match faults.stall_ns {
            Some(_) => {
                vec![request.get(..mid).unwrap_or_default(), request.get(mid..).unwrap_or_default()]
            }
            None => vec![request],
        };
        let mut events = Vec::new();
        let mut halves_iter = halves.into_iter();
        if let Some(first) = halves_iter.next() {
            push_data(&mut events, first, faults.torn_read);
        }
        for rest in halves_iter {
            if let Some(stall) = faults.stall_ns {
                events.push(MemEvent::Stall(stall));
            }
            push_data(&mut events, rest, faults.torn_read);
        }
        let write_fail_after = faults.disconnect.then_some(8);
        Self { events: events.into(), pending_virtual_ns: 0, written: Vec::new(), write_fail_after }
    }
}

fn push_data(events: &mut Vec<MemEvent>, bytes: &[u8], torn: bool) {
    if bytes.is_empty() {
        return;
    }
    if torn {
        events.extend(bytes.iter().map(|b| MemEvent::Data(vec![*b])));
    } else {
        events.push(MemEvent::Data(bytes.to_vec()));
    }
}

impl Read for MemTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.events.pop_front() {
                None => return Ok(0), // clean EOF
                Some(MemEvent::Stall(ns)) => {
                    self.pending_virtual_ns = self.pending_virtual_ns.saturating_add(ns);
                }
                Some(MemEvent::Disconnect) => {
                    return Err(io::Error::from(io::ErrorKind::ConnectionReset));
                }
                Some(MemEvent::Data(mut data)) => {
                    if data.is_empty() {
                        continue;
                    }
                    let n = data.len().min(buf.len());
                    let rest = data.split_off(n);
                    buf.get_mut(..n).unwrap_or_default().copy_from_slice(&data);
                    if !rest.is_empty() {
                        self.events.push_front(MemEvent::Data(rest));
                    }
                    return Ok(n);
                }
            }
        }
    }
}

impl Write for MemTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if let Some(allowed) = self.write_fail_after {
            let room = allowed.saturating_sub(self.written.len());
            if room == 0 {
                return Err(io::Error::from(io::ErrorKind::BrokenPipe));
            }
            let n = buf.len().min(room);
            self.written.extend_from_slice(buf.get(..n).unwrap_or_default());
            return Ok(n);
        }
        self.written.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for MemTransport {
    fn set_read_timeout_ns(&mut self, _ns: Option<u64>) -> io::Result<()> {
        Ok(()) // stalls are virtual; the conn loop enforces idle budgets
    }

    fn take_virtual_ns(&mut self) -> u64 {
        std::mem::take(&mut self.pending_virtual_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults(torn: bool, stall_ns: Option<u64>, disconnect: bool) -> ConnFaults {
        ConnFaults { seq: 0, torn_read: torn, stall_ns, disconnect }
    }

    #[test]
    fn torn_transport_delivers_one_byte_per_read() {
        let mut t = MemTransport::request(b"abc", faults(true, None, false));
        let mut buf = [0u8; 16];
        assert_eq!(t.read(&mut buf).unwrap(), 1);
        assert_eq!(t.read(&mut buf).unwrap(), 1);
        assert_eq!(t.read(&mut buf).unwrap(), 1);
        assert_eq!(t.read(&mut buf).unwrap(), 0, "then clean EOF");
    }

    #[test]
    fn stall_charges_virtual_time_before_second_half() {
        let mut t = MemTransport::request(b"abcdef", faults(false, Some(7_000), false));
        let mut buf = [0u8; 16];
        assert_eq!(t.read(&mut buf).unwrap(), 3);
        assert_eq!(t.take_virtual_ns(), 0, "no stall before the first half");
        assert_eq!(t.read(&mut buf).unwrap(), 3);
        assert_eq!(t.take_virtual_ns(), 7_000, "stall consumed with the second half");
        assert_eq!(t.take_virtual_ns(), 0, "meter resets once taken");
    }

    #[test]
    fn disconnect_fails_writes_after_prefix() {
        let mut t = MemTransport::request(b"x", faults(false, None, true));
        assert_eq!(t.write(b"HTTP/1.1 200 OK\r\n").unwrap(), 8, "prefix only");
        assert!(t.write(b"more").is_err(), "then the peer is gone");
    }

    #[test]
    fn scripted_disconnect_event_resets_reads() {
        let mut t = MemTransport::new(vec![MemEvent::Data(b"GE".to_vec()), MemEvent::Disconnect]);
        let mut buf = [0u8; 16];
        assert_eq!(t.read(&mut buf).unwrap(), 2);
        assert_eq!(t.read(&mut buf).unwrap_err().kind(), io::ErrorKind::ConnectionReset);
    }

    #[test]
    fn partial_reads_resume_where_they_left_off() {
        let mut t = MemTransport::new(vec![MemEvent::Data(b"abcdef".to_vec())]);
        let mut small = [0u8; 4];
        assert_eq!(t.read(&mut small).unwrap(), 4);
        assert_eq!(&small, b"abcd");
        assert_eq!(t.read(&mut small).unwrap(), 2);
        assert_eq!(small.get(..2).unwrap(), b"ef");
    }
}
