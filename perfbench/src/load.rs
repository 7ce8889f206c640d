//! The benchmark's own HTTP client and open-loop load generator.
//!
//! Requests are due on a fixed schedule whether or not earlier ones have
//! finished (an open loop: independent readers). Each request's latency
//! is timed from its *due* time, so a stall delays and charges every
//! request queued behind it instead of silently thinning the load
//! (coordinated omission). How late the generator sent each request is
//! kept beside it, so a generator that cannot keep its schedule shows.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A keep-alive HTTP/1.1 connection.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Request bytes written.
    pub tx_bytes: u64,
    /// Response bytes read.
    pub rx_bytes: u64,
}

/// One decoded response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub etag: Option<String>,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            addr,
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            tx_bytes: 0,
            rx_bytes: 0,
        })
    }

    /// Replace a broken connection with a fresh one (byte counts carry on).
    pub fn reconnect(&mut self) -> std::io::Result<()> {
        let fresh = Client::connect(self.addr)?;
        self.reader = fresh.reader;
        self.writer = fresh.writer;
        Ok(())
    }

    pub fn get(&mut self, path: &str, if_none_match: Option<&str>) -> std::io::Result<Reply> {
        let mut head = format!("GET {path} HTTP/1.1\r\nhost: perfbench\r\n");
        if let Some(tag) = if_none_match {
            head.push_str("if-none-match: ");
            head.push_str(tag);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        self.writer.write_all(head.as_bytes())?;
        self.tx_bytes += head.len() as u64;

        let mut line = String::new();
        let mut read_line = |line: &mut String, rx: &mut u64| -> std::io::Result<()> {
            line.clear();
            let n = self.reader.read_line(line)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            *rx += n as u64;
            Ok(())
        };
        let mut rx = 0u64;
        read_line(&mut line, &mut rx)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        let mut etag = None;
        loop {
            read_line(&mut line, &mut rx)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .parse()
                        .map_err(|_| invalid(format!("bad content-length {value:?}")))?;
                } else if name.eq_ignore_ascii_case("etag") {
                    etag = Some(value.to_string());
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        self.rx_bytes += rx + length as u64;
        Ok(Reply { status, etag, body })
    }
}

/// One request to send.
#[derive(Debug, Clone)]
pub struct Req {
    pub path: String,
    pub if_none_match: Option<String>,
}

/// What a connection asks and how it judges the answers.
pub trait Driver {
    /// The request due at global schedule slot `slot`.
    fn next(&mut self, slot: u64) -> Req;
    /// Whether `reply` (received at `done`) is the right answer to `req`.
    fn check(&mut self, req: &Req, reply: &Reply, done: Instant) -> bool;
    /// Called about once a millisecond while waiting for the next due time.
    fn idle(&mut self) {}
    /// The first few wrong answers, described.
    fn wrong(&self) -> &[String] {
        &[]
    }
}

/// One request's fate.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Due time to full response, in ms.
    pub latency_ms: f64,
    /// Due time to send, in ms: how late the generator ran.
    pub late_ms: f64,
    pub ok: bool,
}

/// When a connection's schedule runs.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    /// Due times at or after this are never sent.
    pub end: Instant,
    /// Gap between consecutive due times across all connections.
    pub interval: Duration,
    /// This connection's slot offset and the number of connections
    /// sharing the schedule (slots interleave round-robin).
    pub conn: u64,
    pub conns: u64,
}

impl Schedule {
    /// When this connection's `i`-th request is due.
    fn due(&self, i: u64) -> Instant {
        let slot = i * self.conns + self.conn;
        self.start + Duration::from_nanos((self.interval.as_nanos() as u64).saturating_mul(slot))
    }
}

fn wait_until(due: Instant, driver: &mut dyn Driver, stop: &AtomicBool) {
    loop {
        driver.idle();
        let now = Instant::now();
        if now >= due || stop.load(Ordering::Relaxed) {
            return;
        }
        std::thread::sleep((due - now).min(Duration::from_millis(1)));
    }
}

/// Run one connection's share of a schedule until its end or until
/// `stop` is raised. A transport error fails that request and the
/// connection is re-dialled once; if that fails too, the rest of the
/// schedule is abandoned (and the caller sees fewer outcomes than due).
pub fn drive(
    client: &mut Client,
    driver: &mut dyn Driver,
    sched: Schedule,
    stop: &AtomicBool,
) -> Vec<Outcome> {
    let mut out = Vec::new();
    for i in 0.. {
        let due = sched.due(i);
        if due >= sched.end || stop.load(Ordering::Relaxed) {
            break;
        }
        wait_until(due, driver, stop);
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let req = driver.next(i * sched.conns + sched.conn);
        let sent = Instant::now();
        let reply = client.get(&req.path, req.if_none_match.as_deref());
        let done = Instant::now();
        let ok = match &reply {
            Ok(r) => driver.check(&req, r, done),
            Err(_) => false,
        };
        out.push(Outcome {
            latency_ms: (done - due).as_secs_f64() * 1e3,
            late_ms: (sent - due).as_secs_f64() * 1e3,
            ok,
        });
        if reply.is_err() && client.reconnect().is_err() {
            break;
        }
    }
    out
}

/// Run `drivers.len()` connections (one thread each) over one shared
/// schedule at `rate` requests per second in total for `duration`.
pub fn open_loop(
    clients: &mut [Client],
    drivers: &mut [Box<dyn Driver + Send>],
    rate: f64,
    duration: Duration,
) -> Vec<Outcome> {
    assert_eq!(clients.len(), drivers.len(), "one driver per connection");
    let start = Instant::now() + Duration::from_millis(2);
    let conns = clients.len() as u64;
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(drivers.iter_mut())
            .enumerate()
            .map(|(c, (client, driver))| {
                let sched = Schedule {
                    start,
                    end: start + duration,
                    interval: Duration::from_secs_f64(1.0 / rate),
                    conn: c as u64,
                    conns,
                };
                let stop = &stop;
                s.spawn(move || drive(client, driver.as_mut(), sched, stop))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    })
}

/// Lateness summary of the *end* of a run: the median lateness of its
/// last tenth of requests, in ms. A schedule the system keeps up with
/// ends near zero; a growing backlog ends far behind.
pub fn tail_late_ms(outcomes: &[Outcome]) -> f64 {
    let n = outcomes.len();
    if n == 0 {
        return 0.0;
    }
    let tail: Vec<f64> = outcomes[n - n.div_ceil(10)..]
        .iter()
        .map(|o| o.late_ms)
        .collect();
    crate::stats::median(&tail).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_crawler::{CrawlConfig, Walker};
    use cc_serve::{ServeConfig, Server, ServingIndex};
    use cc_web::{generate, WebConfig};

    struct Healthz;

    impl Driver for Healthz {
        fn next(&mut self, _slot: u64) -> Req {
            Req {
                path: "/healthz".into(),
                if_none_match: None,
            }
        }
        fn check(&mut self, _req: &Req, reply: &Reply, _done: Instant) -> bool {
            reply.status == 200
        }
    }

    fn tiny_index() -> ServingIndex {
        let web = generate(&WebConfig::small());
        let cfg = CrawlConfig {
            steps_per_walk: 2,
            max_walks: Some(3),
            ..CrawlConfig::default()
        };
        let ds = Walker::new(&web, cfg).crawl();
        let out = cc_core::run_pipeline(&ds);
        ServingIndex::build(&web, &ds, &out).expect("index builds")
    }

    /// A server slower than the schedule: the backlog grows, latency
    /// timed from the due time grows with it, and the generator's
    /// lateness (`load.late_ms_p99`) reports the stall.
    #[test]
    fn stalled_server_shows_in_latency_and_lateness() {
        // 2 ms per request against a 0.5 ms schedule.
        const DELAY_MS: f64 = 2.0;
        let server = Server::start(
            tiny_index(),
            ServeConfig {
                workers: 1,
                debug_delay_ms: DELAY_MS as u64,
                ..ServeConfig::default()
            },
        )
        .expect("server starts");
        let mut clients = vec![Client::connect(server.addr()).expect("connects")];
        let mut drivers: Vec<Box<dyn Driver + Send>> = vec![Box::new(Healthz)];
        let outcomes = open_loop(
            &mut clients,
            &mut drivers,
            2_000.0,
            Duration::from_millis(600),
        );
        drop(clients);
        server.shutdown();

        assert!(outcomes.iter().all(|o| o.ok));
        // Every request due in the window is sent, however late: the
        // stall stretches the run to ~1200 × 2 ms instead of thinning it.
        let n = outcomes.len();
        assert_eq!(n, 1_200);
        // Each request waits for every one before it, so latency from the
        // due time climbs by about (delay - interval) per request...
        let first = outcomes[0].latency_ms;
        let last = outcomes[n - 1].latency_ms;
        assert!(first < 10.0 * DELAY_MS, "first {first} ms");
        assert!(last > 300.0 * DELAY_MS, "last {last} ms");
        assert!(outcomes
            .windows(2)
            .all(|w| w[1].latency_ms + 1.0 > w[0].latency_ms));
        // ...while the time from send to answer, all a generator timing
        // from the send would see, stays at the server's own delay.
        let service: Vec<f64> = outcomes.iter().map(|o| o.latency_ms - o.late_ms).collect();
        assert!(crate::stats::median(&service).is_some_and(|m| m < 5.0 * DELAY_MS));
        // The generator reports the stall: seconds behind at p99 and at
        // the end of the run.
        let late: Vec<f64> = outcomes.iter().map(|o| o.late_ms).collect();
        let late_p99 = crate::stats::percentile(&late, 0.99).expect("1200 samples support a p99");
        assert!(late_p99 > 300.0 * DELAY_MS, "late p99 {late_p99} ms");
        assert!(tail_late_ms(&outcomes) > 300.0 * DELAY_MS);
    }

    /// A server faster than the schedule keeps the generator on time, and
    /// the server counts exactly the requests the client sent.
    #[test]
    fn fast_server_keeps_the_schedule() {
        let server = Server::start(tiny_index(), ServeConfig::default()).expect("server starts");
        let mut clients = vec![Client::connect(server.addr()).expect("connects")];
        let mut drivers: Vec<Box<dyn Driver + Send>> = vec![Box::new(Healthz)];
        let outcomes = open_loop(
            &mut clients,
            &mut drivers,
            200.0,
            Duration::from_millis(300),
        );
        drop(clients);
        let report = server.shutdown();
        assert_eq!(outcomes.len(), 60);
        assert!(outcomes.iter().all(|o| o.ok));
        assert!(tail_late_ms(&outcomes) < 20.0);
        assert_eq!(
            report.deterministic.counters.get("serve.requests"),
            Some(&60)
        );
    }
}
