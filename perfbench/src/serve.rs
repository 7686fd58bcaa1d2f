//! Driving `implicate-serve` from outside: start-up, a burst to
//! visibility, and an open-loop steady phase of rows beside queries.
//!
//! The load generator is this one process with at most two threads and
//! two sockets open at once: one ingest connection and one HTTP
//! connection.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::json;
use crate::proc::Guard;

/// Ingest rate of the steady phase, rows per second.
pub const STEADY_ROWS_PER_S: f64 = 40_000.0;

/// Period of `GET /estimate` in the steady phase (about 12.4 queries/s,
/// below the ~20/s a sequential client reaches). It is deliberately not a
/// multiple of the server's 50 ms accept poll: the server's acceptor
/// restarts its poll at each accepted connection, and a period of
/// 50 ms × (1 + golden ratio) makes successive queries land at evenly
/// spread phases of that poll, so a run samples the poll's whole delay
/// range instead of locking onto one phase for its whole length.
pub const QUERY_PERIOD: Duration = Duration::from_micros(80_902);

/// Row-sender tick: rows due since the last tick go out in one write.
const TICK: Duration = Duration::from_millis(1);

/// A generator whose p90 lateness exceeds this did not keep its own
/// schedule; its run is invalid rather than slow.
pub const LATE_LIMIT_MS: f64 = 10.0;

/// Counts every operation against the server and every correctness
/// comparison; failures feed `error_rate`.
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Ops {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        let what = what.into();
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }

    /// Records a comparison.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(what());
        }
    }
}

/// One HTTP/1.0 exchange.
pub struct Reply {
    pub status: u16,
    pub body: String,
    /// `connect()` duration.
    pub connect: Duration,
    /// From the request being written to the first reply byte.
    pub first_byte: Duration,
    /// When the reply was complete.
    pub done: Instant,
}

pub fn http(addr: SocketAddr, method: &str, path: &str) -> std::io::Result<Reply> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    let connect = start.elapsed();
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.set_nodelay(true)?;
    let sent = Instant::now();
    stream
        .write_all(format!("{method} {path} HTTP/1.0\r\nContent-Length: 0\r\n\r\n").as_bytes())?;
    let mut raw = Vec::with_capacity(1024);
    let mut buf = [0u8; 4096];
    let n = stream.read(&mut buf)?;
    let first_byte = sent.elapsed();
    raw.extend_from_slice(&buf[..n]);
    stream.read_to_end(&mut raw)?;
    let done = Instant::now();
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    Ok(Reply {
        status,
        body: body.to_owned(),
        connect,
        first_byte,
        done,
    })
}

/// The served estimate as the bit patterns `/estimate` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bits {
    pub f0_sup: u64,
    pub non_implication_count: u64,
    pub implication_count: u64,
}

impl Bits {
    pub fn of(e: &implicate::Estimate) -> Self {
        Self {
            f0_sup: e.f0_sup.to_bits(),
            non_implication_count: e.non_implication_count.to_bits(),
            implication_count: e.implication_count.to_bits(),
        }
    }
}

/// The fields of a `/estimate` reply the benchmark reads.
pub struct Served {
    pub tuples: u64,
    pub accepted: u64,
    pub bits: Bits,
}

pub fn parse_estimate(body: &str) -> Result<Served, String> {
    let v = json::parse(body.trim())?;
    let field = |k: &str| {
        v.get(k)
            .and_then(json::Value::as_u64)
            .ok_or_else(|| format!("/estimate reply lacks {k}"))
    };
    Ok(Served {
        tuples: field("tuples")?,
        accepted: field("accepted")?,
        bits: Bits {
            f0_sup: field("f0_sup_bits")?,
            non_implication_count: field("non_implication_count_bits")?,
            implication_count: field("implication_count_bits")?,
        },
    })
}

/// A sample `name value` line of a Prometheus exposition.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}

/// A running server; killed and reaped if dropped before
/// [`Server::shutdown`].
pub struct Server {
    guard: Guard,
    pub ingest: SocketAddr,
    pub query: SocketAddr,
}

impl Server {
    /// Starts `bin` with `args` and waits for the first `/healthz` 200;
    /// returns the server and the time from spawn to that reply.
    pub fn start(
        bin: &Path,
        args: &[String],
        stderr_log: &Path,
    ) -> Result<(Self, Duration), String> {
        let start = Instant::now();
        let child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(std::fs::File::create(stderr_log).map_err(|e| e.to_string())?)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut guard = Guard::new(child);
        let stdout = guard.child_mut().stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut addr = |prefix: &str| -> Result<SocketAddr, String> {
            let line = lines
                .next()
                .ok_or("server exited before announcing its ports")?
                .map_err(|e| e.to_string())?;
            line.strip_prefix(prefix)
                .and_then(|a| a.trim().parse().ok())
                .ok_or_else(|| format!("unexpected announcement {line:?}"))
        };
        let ingest = addr("serve: ingest listening on ")?;
        let query = addr("serve: query listening on ")?;
        let deadline = start + Duration::from_secs(30);
        loop {
            if let Ok(r) = http(query, "GET", "/healthz") {
                if r.status == 200 {
                    break;
                }
            }
            if Instant::now() > deadline {
                return Err("no /healthz 200 within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup = start.elapsed();
        Ok((
            Self {
                guard,
                ingest,
                query,
            },
            setup,
        ))
    }

    /// Peak resident set of the server so far, in bytes.
    pub fn peak_rss_bytes(&self) -> std::io::Result<u64> {
        crate::proc::peak_rss_of(self.guard.id())
    }

    /// `GET /estimate`, counted in `ops`.
    pub fn estimate(&self, ops: &mut Ops) -> Option<(Reply, Served)> {
        match http(self.query, "GET", "/estimate") {
            Ok(r) if r.status == 200 => match parse_estimate(&r.body) {
                Ok(s) => {
                    ops.ok();
                    Some((r, s))
                }
                Err(e) => {
                    ops.fail(e);
                    None
                }
            },
            Ok(r) => {
                ops.fail(format!("/estimate answered {}", r.status));
                None
            }
            Err(e) => {
                ops.fail(format!("/estimate: {e}"));
                None
            }
        }
    }

    /// Polls `/estimate` until its `tuples` reaches `target`; returns
    /// that reply.
    pub fn wait_visible(
        &self,
        target: u64,
        ops: &mut Ops,
        timeout: Duration,
    ) -> Result<(Reply, Served), String> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some((r, s)) = self.estimate(ops) {
                if s.tuples >= target {
                    return Ok((r, s));
                }
            }
            if Instant::now() > deadline {
                return Err(format!("rows not visible within {timeout:?}"));
            }
        }
    }

    /// `POST /shutdown`, then waits for a clean exit.
    pub fn shutdown(self, ops: &mut Ops) -> Result<(), String> {
        match http(self.query, "POST", "/shutdown") {
            Ok(r) if r.status == 200 => ops.ok(),
            Ok(r) => ops.fail(format!("/shutdown answered {}", r.status)),
            Err(e) => ops.fail(format!("/shutdown: {e}")),
        }
        let code = self
            .guard
            .finish(Duration::from_secs(30))
            .map_err(|e| format!("server exit: {e}"))?;
        ops.check(code == Some(0), || format!("server exited with {code:?}"));
        Ok(())
    }
}

/// Sends `rows` on `ingest` as fast as the socket takes them, while this
/// thread polls `/estimate`; returns the time from the first byte sent
/// until a reply shows all rows (`target` tuples), and that reply.
pub fn burst(
    server: &Server,
    ingest: &mut TcpStream,
    rows: &[u8],
    target: u64,
    ops: &mut Ops,
) -> Result<(Duration, Served), String> {
    let start = Instant::now();
    let sent = std::thread::scope(|scope| {
        let writer = scope.spawn(|| ingest.write_all(rows));
        let seen = server.wait_visible(target, ops, Duration::from_secs(120));
        let sent = writer
            .join()
            .map_err(|_| "ingest writer panicked".to_string())?;
        sent.map_err(|e| format!("ingest write: {e}"))?;
        seen
    })?;
    Ok((sent.0.done - start, sent.1))
}

/// What the steady phase measured.
pub struct Steady {
    pub visible_ms: Vec<f64>,
    pub rtt_ms: Vec<f64>,
    pub connect_ms: Vec<f64>,
    pub first_byte_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// Rows accepted but not yet in the published view, per reply.
    pub age_rows: Vec<f64>,
    pub rows_sent: u64,
    pub queries_sent: u64,
    pub last: Option<Served>,
}

/// Sleeps until `t` (no-op when `t` has passed).
fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Open-loop steady phase: row `i` is due at `t0 + i / STEADY_ROWS_PER_S`
/// and query `k` at `t0 + k × QUERY_PERIOD`, whatever the server does.
/// Latencies count from due times, so a stall also charges the requests
/// queued behind it. Lateness is how far the generator itself issued
/// work after it could have: after the due time and after its previous
/// operation on the same socket ended.
///
/// `lines` holds the rows' byte offsets into `text` (plus the end);
/// `base` is the tuple count before the first steady row and `restored`
/// the part of it the server restored from a checkpoint rather than
/// accepted. Queries continue until every row is visible.
pub fn steady(
    server: &Server,
    ingest: &mut TcpStream,
    text: &[u8],
    lines: &[usize],
    base: u64,
    restored: u64,
    ops: &mut Ops,
) -> Result<Steady, String> {
    let n = lines.len() - 1;
    let t0 = Instant::now() + Duration::from_millis(20);
    let due_row = |i: usize| t0 + Duration::from_secs_f64(i as f64 / STEADY_ROWS_PER_S);
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> std::io::Result<Vec<f64>> {
            let mut late = Vec::new();
            let mut sent = 0usize;
            let mut tick = t0;
            let mut ready = t0;
            while sent < n {
                sleep_until(tick);
                let woke = Instant::now();
                late.push((woke - tick.max(ready)).as_secs_f64() * 1e3);
                let due = (((woke - t0).as_secs_f64() * STEADY_ROWS_PER_S) as usize + 1).min(n);
                if due > sent {
                    ingest.write_all(&text[lines[sent]..lines[due]])?;
                    sent = due;
                }
                ready = Instant::now();
                tick += TICK;
                if tick < ready {
                    // Skip ticks the write overran; the next write
                    // catches up on every row due by then.
                    let behind = (ready - tick).as_nanos() / TICK.as_nanos();
                    tick += TICK * (behind as u32);
                }
            }
            Ok(late)
        });

        let mut out = Steady {
            visible_ms: Vec::with_capacity(n),
            rtt_ms: Vec::new(),
            connect_ms: Vec::new(),
            first_byte_ms: Vec::new(),
            late_ms: Vec::new(),
            age_rows: Vec::new(),
            rows_sent: n as u64,
            queries_sent: 0,
            last: None,
        };
        let deadline = due_row(n) + Duration::from_secs(30);
        let mut visible = 0usize;
        let mut ready = t0;
        let mut k = 0u32;
        while visible < n {
            let due = t0 + QUERY_PERIOD * k;
            k += 1;
            sleep_until(due);
            out.late_ms
                .push((Instant::now() - due.max(ready)).as_secs_f64() * 1e3);
            out.queries_sent += 1;
            let Some((reply, served)) = server.estimate(ops) else {
                ready = Instant::now();
                continue;
            };
            ready = reply.done;
            out.rtt_ms.push((reply.done - due).as_secs_f64() * 1e3);
            out.connect_ms.push(reply.connect.as_secs_f64() * 1e3);
            out.first_byte_ms.push(reply.first_byte.as_secs_f64() * 1e3);
            out.age_rows
                .push((served.accepted + restored).saturating_sub(served.tuples) as f64);
            let covered = (served.tuples.saturating_sub(base) as usize).min(n);
            for i in visible..covered {
                out.visible_ms
                    .push((reply.done - due_row(i)).as_secs_f64() * 1e3);
            }
            visible = visible.max(covered);
            out.last = Some(served);
            if Instant::now() > deadline {
                return Err(format!("only {visible} of {n} steady rows became visible"));
            }
        }
        let late = sender
            .join()
            .map_err(|_| "row sender panicked".to_string())?
            .map_err(|e| format!("ingest write: {e}"))?;
        out.late_ms.extend(late);
        Ok(out)
    })
}

/// Byte offsets of each line start in `text`, plus `text.len()`.
pub fn line_offsets(text: &[u8]) -> Vec<usize> {
    let mut out = vec![0];
    out.extend(
        text.iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .map(|(i, _)| i + 1),
    );
    if *out.last().expect("non-empty") != text.len() {
        out.push(text.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_estimate_reply() {
        let body = "{\"epoch\":3,\"tuples\":10,\"accepted\":12,\"skipped\":0,\"f0_sup\":1.5,\
                    \"non_implication_count\":0,\"implication_count\":1.5,\"f0_sup_bits\":4609434218613702656,\
                    \"non_implication_count_bits\":0,\"implication_count_bits\":4609434218613702656}\n";
        let s = parse_estimate(body).expect("valid reply");
        assert_eq!(s.tuples, 10);
        assert_eq!(s.accepted, 12);
        assert_eq!(s.bits.f0_sup, 1.5f64.to_bits());
        assert!(parse_estimate("{\"tuples\":1}").is_err());
    }

    #[test]
    fn reads_prometheus_samples() {
        let text = "# TYPE implicate_view_publishes counter\nimplicate_view_publishes 17\n\
                    implicate_view_publishes_total 3\n";
        assert_eq!(prom_value(text, "implicate_view_publishes"), Some(17.0));
        assert_eq!(prom_value(text, "implicate_missing"), None);
    }

    #[test]
    fn line_offsets_cover_every_row() {
        assert_eq!(line_offsets(b"a\nbb\n"), vec![0, 2, 5]);
        assert_eq!(line_offsets(b"a\nbb"), vec![0, 2, 4]);
    }
}
