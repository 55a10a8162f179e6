//! The load generator: one connection, one sender thread, one receiver
//! thread. Requests are pipelined and replies are matched to requests by
//! their `id`, so a slow reply never holds back later sends.
//!
//! Open-loop latency is timed from each request's *scheduled* send time,
//! not from when the sender got round to it: a stall that delays the
//! sender or the server then shows in every request queued behind it,
//! instead of silently lowering the offered load (coordinated omission).

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Marks a request with no reply (yet).
pub const MISSING: u64 = u64::MAX;

/// How long replies may trail the last send before they count as missing.
const REPLY_GRACE: Duration = Duration::from_secs(5);

/// How requests are paced.
#[derive(Debug, Clone, Copy)]
pub enum Pacing<'a> {
    /// Send request `i` at `due_ns[i]` whatever the replies do. A request
    /// with `gate[i] = Some(j)` is held until request `j` has its reply.
    Open {
        /// Due times, nanoseconds from the start of the phase.
        due_ns: &'a [u64],
        /// Optional reply each request must wait for.
        gate: &'a [Option<usize>],
    },
    /// Keep `in_flight` requests outstanding: send the next one when a
    /// reply arrives.
    Closed {
        /// Requests outstanding at once.
        in_flight: usize,
    },
}

/// What one phase of load saw. Times are nanoseconds from its start.
#[derive(Debug, Clone)]
pub struct Phase {
    /// When the phase started.
    pub started: Instant,
    /// When each request was due (equal to `sent_ns` in a closed loop).
    pub due_ns: Vec<u64>,
    /// When each request was written ([`MISSING`] if never).
    pub sent_ns: Vec<u64>,
    /// When each reply arrived ([`MISSING`] if it did not).
    pub recv_ns: Vec<u64>,
    /// Each reply line without its newline (empty if missing).
    pub replies: Vec<String>,
    /// The first socket error, if any.
    pub transport_error: Option<String>,
}

impl Phase {
    /// Latency of every answered request from its due time, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.recv_ns)
            .filter(|(_, &r)| r != MISSING)
            .map(|(&d, &r)| r.saturating_sub(d) as f64 / 1e6)
            .collect()
    }

    /// How late the generator wrote each request, µs.
    pub fn lateness_us(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.sent_ns)
            .filter(|(_, &s)| s != MISSING)
            .map(|(&d, &s)| s.saturating_sub(d) as f64 / 1e3)
            .collect()
    }

    /// Requests without a reply.
    #[cfg(test)]
    pub fn missing(&self) -> usize {
        self.recv_ns.iter().filter(|&&r| r == MISSING).count()
    }

    /// Completed requests per second from the first send, the median
    /// over windows of replies (see [`crate::stats::windowed_rate`]).
    pub fn completed_per_s(&self) -> f64 {
        let first = self.sent_ns.iter().copied().min().unwrap_or(0);
        let done: Vec<u64> = self
            .recv_ns
            .iter()
            .copied()
            .filter(|&r| r != MISSING)
            .collect();
        crate::stats::windowed_rate(first, &done)
    }
}

/// The `id` of a reply line (`{"id":N,...}`), if it has one.
fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Sends `lines` (newline-terminated, carrying ids `first_id..`) to
/// `addr` on one connection and collects the replies.
pub fn drive(addr: SocketAddr, lines: &[String], first_id: u64, pacing: Pacing<'_>) -> Phase {
    let n = lines.len();
    let start = Instant::now();
    let mut phase = Phase {
        started: start,
        due_ns: vec![0; n],
        sent_ns: vec![MISSING; n],
        recv_ns: vec![MISSING; n],
        replies: vec![String::new(); n],
        transport_error: None,
    };
    let stream = match TcpStream::connect(addr).and_then(|s| {
        s.set_nodelay(true)?;
        let reader = s.try_clone()?;
        reader.set_read_timeout(Some(Duration::from_millis(50)))?;
        Ok((s, reader))
    }) {
        Ok(pair) => pair,
        Err(e) => {
            phase.transport_error = Some(format!("connect: {e}"));
            return phase;
        }
    };
    let (mut writer, reader) = stream;
    let recv: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(MISSING)).collect();
    let sender_done = AtomicU64::new(MISSING);
    let receiver_done = AtomicBool::new(false);
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    let now_ns = || start.elapsed().as_nanos() as u64;

    let (sent, send_error, replies, recv_error) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let permits = permit_rx;
            let mut sent = vec![MISSING; n];
            let result = match pacing {
                Pacing::Open { due_ns, gate } => send_open(
                    &mut writer,
                    lines,
                    due_ns,
                    gate,
                    &recv,
                    &receiver_done,
                    &now_ns,
                    &mut sent,
                ),
                Pacing::Closed { in_flight } => {
                    send_closed(&mut writer, lines, in_flight, &permits, &now_ns, &mut sent)
                }
            };
            sender_done.store(now_ns(), Ordering::SeqCst);
            (sent, result.err())
        });
        let receiver = scope.spawn(|| {
            // Owned here, so a receiver that gives up also ends a closed
            // loop's wait for its next permit.
            let permits = permit_tx;
            let out = receive(reader, n, first_id, &recv, &sender_done, &permits, &now_ns);
            receiver_done.store(true, Ordering::SeqCst);
            out
        });
        let (sent, send_error) = sender.join().expect("sender thread panicked");
        let (replies, recv_error) = receiver.join().expect("receiver thread panicked");
        (sent, send_error, replies, recv_error)
    });
    let _ = writer.shutdown(std::net::Shutdown::Both);
    phase.due_ns = match pacing {
        Pacing::Open { due_ns, .. } => due_ns.to_vec(),
        Pacing::Closed { .. } => sent.clone(),
    };
    phase.sent_ns = sent;
    phase.recv_ns = recv.iter().map(|r| r.load(Ordering::SeqCst)).collect();
    phase.replies = replies;
    phase.transport_error = send_error.or(recv_error);
    phase
}

#[allow(clippy::too_many_arguments)]
fn send_open(
    writer: &mut TcpStream,
    lines: &[String],
    due_ns: &[u64],
    gate: &[Option<usize>],
    recv: &[AtomicU64],
    receiver_done: &AtomicBool,
    now_ns: &dyn Fn() -> u64,
    sent: &mut [u64],
) -> Result<(), String> {
    let n = lines.len();
    let mut buf = Vec::with_capacity(4096);
    let mut i = 0;
    while i < n {
        let now = now_ns();
        if due_ns[i] > now {
            std::thread::sleep(Duration::from_nanos(due_ns[i] - now));
            continue;
        }
        // Everything already due goes out in one write.
        buf.clear();
        let first = i;
        while i < n && due_ns[i] <= now {
            if let Some(j) = gate[i] {
                if recv[j].load(Ordering::SeqCst) == MISSING
                    && now < due_ns[i] + REPLY_GRACE.as_nanos() as u64
                {
                    break;
                }
            }
            buf.extend_from_slice(lines[i].as_bytes());
            i += 1;
        }
        if i == first {
            // A retry waiting for its original's reply.
            if receiver_done.load(Ordering::SeqCst) {
                return Err("connection closed before every request was sent".to_owned());
            }
            std::thread::sleep(Duration::from_micros(50));
            continue;
        }
        writer.write_all(&buf).map_err(|e| format!("send: {e}"))?;
        let t = now_ns();
        sent[first..i].fill(t);
    }
    Ok(())
}

fn send_closed(
    writer: &mut TcpStream,
    lines: &[String],
    in_flight: usize,
    permits: &mpsc::Receiver<()>,
    now_ns: &dyn Fn() -> u64,
    sent: &mut [u64],
) -> Result<(), String> {
    for (i, line) in lines.iter().enumerate() {
        if i >= in_flight && permits.recv().is_err() {
            return Err("connection closed before every request was sent".to_owned());
        }
        writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        sent[i] = now_ns();
    }
    Ok(())
}

fn receive(
    reader: TcpStream,
    n: usize,
    first_id: u64,
    recv: &[AtomicU64],
    sender_done: &AtomicU64,
    permits: &mpsc::Sender<()>,
    now_ns: &dyn Fn() -> u64,
) -> (Vec<String>, Option<String>) {
    let mut replies = vec![String::new(); n];
    let mut reader = BufReader::new(reader);
    let mut got = 0usize;
    let mut line = String::new();
    while got < n {
        match reader.read_line(&mut line) {
            Ok(0) => return (replies, Some("server closed the connection".to_owned())),
            Ok(_) => {
                let t = now_ns();
                let slot = reply_id(&line)
                    .and_then(|id| id.checked_sub(first_id))
                    .filter(|&i| i < n as u64)
                    .map(|i| i as usize);
                if let Some(i) = slot {
                    if recv[i].load(Ordering::SeqCst) == MISSING {
                        recv[i].store(t, Ordering::SeqCst);
                        replies[i] = line.trim_end().to_owned();
                        got += 1;
                        let _ = permits.send(());
                    }
                }
                line.clear();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let done = sender_done.load(Ordering::SeqCst);
                if done != MISSING && now_ns() > done + REPLY_GRACE.as_nanos() as u64 {
                    break;
                }
            }
            Err(e) => return (replies, Some(format!("receive: {e}"))),
        }
    }
    (replies, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A stand-in server that answers each line with `{"id":N,"ok":true}`
    /// and stalls once, for `stall`, before answering request `stall_at`.
    fn fake_responder(stall_at: u64, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                let id: u64 = line
                    .split("\"id\":")
                    .nth(1)
                    .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                    .and_then(|s| s.parse().ok())
                    .unwrap();
                if id == stall_at {
                    std::thread::sleep(stall);
                }
                if writeln!(writer, "{{\"id\":{id},\"ok\":true}}").is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn lines(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("{{\"op\":\"stats\",\"id\":{i}}}\n"))
            .collect()
    }

    #[test]
    fn a_stall_shows_in_every_request_queued_behind_it() {
        // 300 requests at 1 kHz; the responder stalls 50 ms on request 100,
        // so the ~50 requests due during the stall wait for it.
        let (addr, server) = fake_responder(100, Duration::from_millis(50));
        let due: Vec<u64> = (0..300).map(|i| i * 1_000_000).collect();
        let gate = vec![None; 300];
        let phase = drive(
            addr,
            &lines(300),
            0,
            Pacing::Open {
                due_ns: &due,
                gate: &gate,
            },
        );
        server.join().unwrap();
        assert_eq!(phase.missing(), 0);
        assert!(
            phase.transport_error.is_none(),
            "{:?}",
            phase.transport_error
        );
        let lat = phase.latencies_ms();
        // The stalled request and the ones due in the next 30 ms all
        // report the wait they were dealt; the ones before it do not.
        assert!(lat[100] >= 45.0, "stalled request {} ms", lat[100]);
        assert!(
            lat[101..131].iter().all(|&l| l >= 15.0),
            "queued requests must carry the stall: {:?}",
            &lat[101..131]
        );
        assert!(lat[..100].iter().all(|&l| l < 45.0));
    }

    #[test]
    fn closed_loop_keeps_a_window_in_flight_and_matches_ids() {
        let (addr, server) = fake_responder(u64::MAX, Duration::ZERO);
        let phase = drive(addr, &lines(500), 0, Pacing::Closed { in_flight: 16 });
        server.join().unwrap();
        assert_eq!(phase.missing(), 0);
        assert!(phase
            .replies
            .iter()
            .enumerate()
            .all(|(i, r)| r == &format!("{{\"id\":{i},\"ok\":true}}")));
        assert!(phase.completed_per_s() > 0.0);
    }

    #[test]
    fn gated_requests_wait_for_their_original() {
        let (addr, server) = fake_responder(0, Duration::from_millis(30));
        // Request 1 is due at once but must wait for request 0's reply,
        // which the responder holds for 30 ms; sends stay in order.
        let due = vec![0, 0, 0];
        let gate = vec![None, Some(0), None];
        let phase = drive(
            addr,
            &lines(3),
            0,
            Pacing::Open {
                due_ns: &due,
                gate: &gate,
            },
        );
        server.join().unwrap();
        assert_eq!(phase.missing(), 0);
        assert!(
            phase.sent_ns[1] >= phase.recv_ns[0],
            "retry sent before its original's reply"
        );
    }

    #[test]
    fn reply_ids_are_read_from_the_line_prefix() {
        assert_eq!(reply_id("{\"id\":42,\"ok\":true}"), Some(42));
        assert_eq!(reply_id("{\"ok\":true}"), None);
    }
}
