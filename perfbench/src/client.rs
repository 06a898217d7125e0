//! The benchmark's own HTTP/1.1 load generator.
//!
//! One thread owns a few keep-alive connections. In open loop it draws
//! Poisson arrivals from a seeded stream. A request is written when it
//! is due, whether or not earlier ones were answered, and its latency
//! runs from the *scheduled* send time, so a stall anywhere (server,
//! kernel, or this generator) is charged to the requests queued behind
//! it. How late the generator itself issued each request is kept as
//! `lateness`, separate from latency, so a rung where the generator fell
//! behind can be marked invalid rather than slow. In closed loop every
//! connection keeps one request in flight, which measures the rate the
//! server completes requests at when it is never idle.
//!
//! At the server's per-connection request cap the final response
//! carries `Connection: close`. Requests pipelined behind it are resent
//! on a fresh connection (`POST /v1/fleet` is a pure function) and
//! counted as retries; their latency still runs from the original
//! schedule. A connection that ends without that announcement fails its
//! unanswered requests as `closed_unanswered`.

use crate::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tn_rng::Rng;

/// One request to send: the full HTTP bytes plus what the caller needs
/// to check its answer.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Complete request bytes (head and body).
    pub bytes: Arc<Vec<u8>>,
    /// Caller-defined tag (e.g. a body index) handed back with the answer.
    pub tag: u64,
    /// Whether to keep the response body for a later comparison.
    pub keep_body: bool,
}

/// Where requests come from and how answers are checked.
pub trait Source: Sync {
    /// The `k`-th request of rung `rung`; `rng` is the rung's body
    /// stream.
    fn next(&self, rung: u64, k: u64, rng: &mut Rng) -> Outgoing;
    /// Checks one 200 response body; `false` counts as a wrong answer.
    fn check(&self, tag: u64, body: &[u8]) -> bool;
}

/// Load shape for one rung.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Poisson arrival rate, requests/second; `None` runs closed loop,
    /// one request in flight per connection.
    pub rate_hz: Option<f64>,
    /// How long requests are issued for.
    pub duration: Duration,
    /// Keep-alive connections.
    pub conns: usize,
    /// Rung number, handed to [`Source::next`].
    pub rung: u64,
    /// Seed of the arrival and body streams.
    pub seed: u64,
    /// A request still unanswered this long after its scheduled time is
    /// failed as `timeout`.
    pub timeout: Duration,
    /// Self-test hook: the generator sleeps for `.1` once `.0` has
    /// elapsed.
    pub stall: Option<(Duration, Duration)>,
}

/// Failed requests by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Answered with a status other than 200.
    pub status: u64,
    /// Connect, read or write error.
    pub io: u64,
    /// Unanswered within the timeout.
    pub timeout: u64,
    /// The connection ended without answering and without announcing
    /// its close.
    pub closed_unanswered: u64,
}

impl Failures {
    /// Every failure.
    pub fn total(&self) -> u64 {
        self.status + self.io + self.timeout + self.closed_unanswered
    }
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The request's tag.
    pub tag: u64,
    /// Scheduled send time, nanoseconds after the rung started.
    pub sched_ns: u64,
    /// Scheduled send to complete response, nanoseconds.
    pub latency_ns: u64,
    /// HTTP status.
    pub status: u16,
    /// Response body, when the request asked for it.
    pub body: Option<Vec<u8>>,
}

/// Everything one rung measured.
#[derive(Debug, Clone)]
pub struct RungResult {
    /// When the schedule started.
    pub started: Instant,
    /// Scheduled length.
    pub duration: Duration,
    /// Distinct requests issued (resends not counted).
    pub sent: u64,
    /// Answered requests (any status).
    pub answers: Vec<Answer>,
    /// Failures by cause.
    pub failures: Failures,
    /// Requests resent after a connection's announced close.
    pub retries: u64,
    /// 200 responses whose body failed [`Source::check`].
    pub wrong_answers: u64,
    /// Generator lateness per issued request, nanoseconds.
    pub lateness_ns: Vec<u64>,
    /// CPU time this process used during the rung.
    pub client_cpu: Duration,
}

impl RungResult {
    /// Answered 200s per second, from the start of the schedule to the
    /// last answer.
    pub fn ok_per_s(&self) -> f64 {
        let ok = self.answers.iter().filter(|a| a.status == 200).count();
        let last_ns = self.answers.iter().map(|a| a.sched_ns + a.latency_ns).max();
        last_ns.map_or(0.0, |ns| ok as f64 / (ns as f64 * 1e-9))
    }

    /// Latencies (milliseconds) of the 200 responses.
    pub fn ok_latencies_ms(&self) -> Vec<f64> {
        self.answers
            .iter()
            .filter(|a| a.status == 200)
            .map(|a| a.latency_ns as f64 * 1e-6)
            .collect()
    }

    /// Requests that did not end in a 200.
    pub fn failed(&self) -> u64 {
        self.failures.total()
    }
}

struct Pending {
    out: Outgoing,
    sched: Instant,
}

struct Conn {
    stream: Option<TcpStream>,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    /// Requests written or queued on this connection, oldest first.
    inflight: VecDeque<Pending>,
}

impl Conn {
    fn new() -> Self {
        Self {
            stream: None,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
        }
    }
}

/// A parsed response head plus where its body ends in the buffer.
struct Head {
    status: u16,
    close: bool,
    body_start: usize,
    body_end: usize,
}

fn parse_head(buf: &[u8]) -> Result<Option<Head>, ()> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| ())?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or(())?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse::<usize>().map_err(|_| ())?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("close"));
        }
    }
    let body_start = head_end + 4;
    let body_end = body_start + length.ok_or(())?;
    Ok((buf.len() >= body_end).then_some(Head {
        status,
        close,
        body_start,
        body_end,
    }))
}

struct Generator<'a> {
    plan: &'a Plan,
    source: &'a dyn Source,
    target: SocketAddr,
    started: Instant,
    conns: Vec<Conn>,
    /// Picks the connection of each new open-loop request.
    picker: Rng,
    /// Draws the request bodies.
    bodies: Rng,
    result: RungResult,
}

impl Generator<'_> {
    fn fail_all(&mut self, c: usize, cause: fn(&mut Failures) -> &mut u64) {
        let conn = &mut self.conns[c];
        let n = conn.inflight.len() as u64;
        conn.inflight.clear();
        conn.stream = None;
        conn.out.clear();
        conn.out_pos = 0;
        conn.inbuf.clear();
        *cause(&mut self.result.failures) += n;
    }

    /// Issues the next request, due at `sched`, on connection `c`.
    fn issue(&mut self, c: usize, sched: Instant, now: Instant) {
        let k = self.result.sent;
        let out = self.source.next(self.plan.rung, k, &mut self.bodies);
        self.result.sent += 1;
        self.result
            .lateness_ns
            .push(now.duration_since(sched).as_nanos() as u64);
        self.enqueue_on(c, Pending { out, sched });
    }

    /// Queues a request on connection `c`, opening it if needed.
    fn enqueue_on(&mut self, c: usize, pending: Pending) {
        if self.conns[c].stream.is_none() && !self.connect(c) {
            self.result.failures.io += 1;
            return;
        }
        let conn = &mut self.conns[c];
        conn.out.extend_from_slice(&pending.out.bytes);
        conn.inflight.push_back(pending);
    }

    fn connect(&mut self, c: usize) -> bool {
        let Ok(stream) = TcpStream::connect_timeout(&self.target, self.plan.timeout) else {
            return false;
        };
        if stream.set_nodelay(true).is_err() || stream.set_nonblocking(true).is_err() {
            return false;
        }
        let conn = &mut self.conns[c];
        conn.stream = Some(stream);
        conn.out.clear();
        conn.out_pos = 0;
        conn.inbuf.clear();
        true
    }

    fn flush(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let Some(stream) = conn.stream.as_mut() else {
            return;
        };
        while conn.out_pos < conn.out.len() {
            match stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => break,
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail_all(c, |f| &mut f.io);
                    return;
                }
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
    }

    /// Reads what is available and settles every complete response.
    fn read(&mut self, c: usize) {
        let mut chunk = [0u8; 64 * 1024];
        let mut ended = false;
        let mut broken = false;
        loop {
            let Some(stream) = self.conns[c].stream.as_mut() else {
                return;
            };
            match stream.read(&mut chunk) {
                Ok(0) => {
                    ended = true;
                    break;
                }
                Ok(n) => self.conns[c].inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        let now = Instant::now();
        let mut announced_close = false;
        loop {
            let head = match parse_head(&self.conns[c].inbuf) {
                Ok(Some(head)) => head,
                Ok(None) => break,
                Err(()) => {
                    broken = true;
                    break;
                }
            };
            let conn = &mut self.conns[c];
            let Some(pending) = conn.inflight.pop_front() else {
                broken = true;
                break;
            };
            let body = &conn.inbuf[head.body_start..head.body_end];
            if head.status == 200 {
                if !self.source.check(pending.out.tag, body) {
                    self.result.wrong_answers += 1;
                }
            } else {
                self.result.failures.status += 1;
            }
            self.result.answers.push(Answer {
                tag: pending.out.tag,
                sched_ns: pending.sched.duration_since(self.started).as_nanos() as u64,
                latency_ns: now.duration_since(pending.sched).as_nanos() as u64,
                status: head.status,
                body: pending.out.keep_body.then(|| body.to_vec()),
            });
            conn.inbuf.drain(..head.body_end);
            if head.close {
                announced_close = true;
                break;
            }
        }
        if announced_close {
            // Honour the close: whatever was pipelined behind the final
            // response goes out again on a fresh connection.
            let behind: Vec<Pending> = self.conns[c].inflight.drain(..).collect();
            self.fail_all(c, |f| &mut f.closed_unanswered);
            self.result.retries += behind.len() as u64;
            for pending in behind {
                self.enqueue_on(c, pending);
            }
        } else if broken {
            self.fail_all(c, |f| &mut f.io);
        } else if ended {
            self.fail_all(c, |f| &mut f.closed_unanswered);
        }
    }

    fn expire(&mut self, now: Instant) {
        for c in 0..self.conns.len() {
            let overdue = self.conns[c]
                .inflight
                .front()
                .is_some_and(|p| now.duration_since(p.sched) > self.plan.timeout);
            if overdue {
                self.fail_all(c, |f| &mut f.timeout);
            }
        }
    }

    fn run(mut self) -> RungResult {
        sys::tight_timer_slack();
        let plan = self.plan;
        let mut arrivals = Rng::seed_from_u64(plan.seed).fork(0);
        let end = self.started + plan.duration;
        // Open loop: the next Poisson arrival; closed loop: never.
        let gap = |rng: &mut Rng| {
            plan.rate_hz.map_or(plan.duration, |rate| {
                Duration::from_secs_f64(rng.gen_exp() / rate)
            })
        };
        let mut next_due = self.started + gap(&mut arrivals);
        let mut stall = plan.stall;
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.conns.len());
        let mut fd_conn: Vec<usize> = Vec::with_capacity(self.conns.len());
        loop {
            let mut now = Instant::now();
            if let Some((at, length)) = stall {
                if now >= self.started + at {
                    std::thread::sleep(length);
                    stall = None;
                    now = Instant::now();
                }
            }
            while next_due <= now && next_due < end {
                // A connection picked at random, so no connection (and no
                // server shard behind it) sees a periodic share.
                let c = self.picker.gen_range(0..self.conns.len());
                self.issue(c, next_due, now);
                next_due += gap(&mut arrivals);
            }
            let closed = plan.rate_hz.is_none() && now < end;
            if closed && now >= self.started {
                for c in 0..self.conns.len() {
                    if self.conns[c].inflight.is_empty() {
                        self.issue(c, now, now);
                    }
                }
            }
            for c in 0..self.conns.len() {
                self.flush(c);
            }
            self.expire(now);
            let issuing = next_due < end || closed;
            let idle = self.conns.iter().all(|c| c.inflight.is_empty());
            if !issuing && idle {
                break;
            }
            fds.clear();
            fd_conn.clear();
            for (c, conn) in self.conns.iter().enumerate() {
                if let Some(stream) = &conn.stream {
                    let mut events = POLLIN;
                    if conn.out_pos < conn.out.len() {
                        events |= POLLOUT;
                    }
                    fds.push(PollFd {
                        fd: stream.as_raw_fd(),
                        events,
                        revents: 0,
                    });
                    fd_conn.push(c);
                }
            }
            // Wake when the next request is due, or (closed loop,
            // draining) on an answer or often enough to notice timeouts.
            let wait = if next_due < end {
                next_due.saturating_duration_since(Instant::now())
            } else {
                Duration::from_millis(5)
            };
            if fds.is_empty() {
                std::thread::sleep(wait);
                continue;
            }
            if sys::poll(&mut fds, Some(wait)).is_err() {
                std::thread::sleep(wait);
                continue;
            }
            for i in 0..fds.len() {
                let revents = fds[i].revents;
                let c = fd_conn[i];
                if revents & (POLLIN | POLLHUP | POLLERR) != 0 {
                    self.read(c);
                }
            }
        }
        self.result
    }
}

/// Runs one rung on the calling thread over `plan.conns` keep-alive
/// connections to `target`.
pub fn run(target: SocketAddr, plan: &Plan, source: &dyn Source) -> RungResult {
    assert!(plan.conns >= 1, "need a connection");
    assert!(
        plan.rate_hz.map_or(true, |rate| rate > 0.0),
        "need a positive rate"
    );
    let cpu_before = sys::process_cpu_time();
    let root = Rng::seed_from_u64(plan.seed);
    let mut generator = Generator {
        plan,
        source,
        target,
        started: Instant::now(),
        conns: (0..plan.conns).map(|_| Conn::new()).collect(),
        picker: root.fork(2),
        bodies: root.fork(1),
        result: RungResult {
            started: Instant::now(),
            duration: plan.duration,
            sent: 0,
            answers: Vec::new(),
            failures: Failures::default(),
            retries: 0,
            wrong_answers: 0,
            lateness_ns: Vec::new(),
            client_cpu: Duration::ZERO,
        },
    };
    // Connections open before the schedule starts, so connect time is
    // not charged to the first requests.
    for c in 0..plan.conns {
        generator.connect(c);
    }
    generator.started = Instant::now() + Duration::from_millis(2);
    generator.result.started = generator.started;
    let mut result = generator.run();
    result.client_cpu = sys::process_cpu_time().saturating_sub(cpu_before);
    result.answers.sort_by_key(|a| a.sched_ns);
    result
}

/// Formats a `POST` request with a JSON body.
pub fn post(host: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_heads_are_framed_by_content_length() {
        let buf = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: close\r\n\r\nabcHTTP/1.1";
        let head = parse_head(buf).unwrap().unwrap();
        assert_eq!(head.status, 200);
        assert!(head.close);
        assert_eq!(&buf[head.body_start..head.body_end], b"abc");
        assert!(
            parse_head(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc")
                .unwrap()
                .is_none()
        );
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }
}
