//! Open-loop pacing: operations are *due* on a fixed schedule whether or
//! not the previous one has finished.
//!
//! A closed loop hides a stall — the client just sends less. Here every
//! latency is taken from the instant the request was due, so a 50 ms stall
//! is charged to every request it delayed, and the generator's own
//! lateness is reported separately so it cannot pass for server latency.

use std::time::{Duration, Instant};

/// Calls `op(i, due)` for `i in 0..count`, never before
/// `start + i * interval`. When `op` overruns, the following calls start
/// late; their `due` does not move.
pub fn paced(start: Instant, interval: Duration, count: usize, mut op: impl FnMut(usize, Instant)) {
    for i in 0..count {
        let due = start + interval * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        op(i, due);
    }
}

/// One open-loop request's timing.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Completion time minus due time.
    pub from_due_ns: u64,
    /// Send time minus due time: how late the generator ran.
    pub lag_ns: u64,
}

impl Timing {
    /// From a request's due time and the client's start/end stamps.
    pub fn new(due: Instant, start: Instant, end: Instant) -> Timing {
        Timing {
            from_due_ns: end.saturating_duration_since(due).as_nanos() as u64,
            lag_ns: start.saturating_duration_since(due).as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Conn;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A stall on one request must inflate the latency of the requests
    /// scheduled behind it, even though the server answers those at once.
    #[test]
    fn latency_counts_from_due_time_not_send_time() {
        const STALLED: usize = 3;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream);
            for i in 0.. {
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap() == 0 {
                        return;
                    }
                    if line == "\r\n" {
                        break;
                    }
                }
                if i == STALLED {
                    std::thread::sleep(Duration::from_millis(100));
                }
                reader
                    .get_mut()
                    .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
                    .unwrap();
            }
        });

        let mut conn = Conn::new(addr);
        let mut body = Vec::new();
        let mut timings = Vec::new();
        let interval = Duration::from_millis(20);
        paced(Instant::now(), interval, 10, |_, due| {
            let reply = conn
                .send(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n", &mut body)
                .unwrap();
            timings.push((Timing::new(due, reply.start, reply.end), reply.latency_ns()));
        });
        drop(conn);
        server.join().unwrap();

        let ms = |ns: u64| ns as f64 / 1e6;
        // On time before the stall.
        assert!(ms(timings[STALLED - 1].0.from_due_ns) < 20.0);
        // The stalled request itself.
        assert!(ms(timings[STALLED].0.from_due_ns) >= 100.0);
        // The next one was due 20 ms in, could only be sent ≥ 100 ms in, and
        // was answered at once: fast by send time, ≥ 80 ms by due time.
        let (next, sent_to_done) = timings[STALLED + 1];
        assert!(ms(sent_to_done) < 20.0, "the server answered it promptly");
        assert!(
            ms(next.from_due_ns) >= 79.0,
            "got {} ms",
            ms(next.from_due_ns)
        );
        assert!(ms(next.lag_ns) >= 79.0);
        // The backlog drains: request 9 is due 20 ms after the stall ended.
        assert!(ms(timings[9].0.from_due_ns) < 20.0);
    }
}
