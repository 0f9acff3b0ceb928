//! E15 — connection-density ceiling of the reactor under keep-alive
//! fan-in.
//!
//! The experiment answers the question PR 8's tentpole exists for: how
//! many *concurrently open* keep-alive connections can the server
//! sustain, and at what memory cost per connection? (The
//! thread-per-connection server it was first compared with is gone;
//! its last measured row is recorded in EXPERIMENTS.md §E15.)
//!
//! Measurement protocol (three processes, because `ulimit -n` is 20 000
//! here and one process cannot hold both ends of 10 000 sockets):
//!
//! 1. The orchestrator (`e15` bin) spawns a **server subprocess**, so
//!    the RSS baseline is that of a process that has served nothing.
//! 2. The server subprocess launches a [`TcpServer`], notes its own
//!    `VmRSS`, then spawns a **client subprocess** that opens N
//!    keep-alive connections and completes one request on every one of
//!    them (proving each connection is genuinely served, not just
//!    parked in a backlog).
//! 3. With all N connections still open, the client prints `READY`; the
//!    server process re-reads `VmRSS` — the delta divided by the held
//!    connection count is the marginal memory per connection — and
//!    releases the client to time a latency sample over the live
//!    connections before anything is torn down.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use wsp_http::{frame_len, HeadScan, Request, Response, Router, ServerConfig, TcpServer};

/// One measured run.
#[derive(Debug, Clone)]
pub struct E15Row {
    /// Connections the client was asked to open.
    pub target_conns: usize,
    /// Connections the server counted as concurrently active at the
    /// moment the client reported `READY`.
    pub held_conns: usize,
    /// Connections that completed a full request/response round trip.
    pub wave_ok: usize,
    pub rss_before_kb: u64,
    pub rss_after_kb: u64,
    /// Marginal resident memory per held connection.
    pub kb_per_conn: f64,
    /// Request latency over live connections, all N still open.
    pub p50_us: u64,
    pub p99_us: u64,
    pub wall_ms: u64,
}

/// `VmRSS` of the calling process, in KiB.
pub fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let digits: String = rest.chars().filter(|c| c.is_ascii_digit()).collect();
            return digits.parse().unwrap_or(0);
        }
    }
    0
}

fn request_bytes() -> Vec<u8> {
    b"GET /Echo HTTP/1.1\r\nHost: e15\r\nContent-Length: 0\r\n\r\n".to_vec()
}

/// Read exactly one HTTP response frame off `stream` using the same
/// incremental scanner the server runs, so a drip or a short read never
/// confuses the measurement.
fn read_one_response(stream: &mut TcpStream) -> std::io::Result<()> {
    let mut buf: Vec<u8> = Vec::with_capacity(256);
    let mut scan = HeadScan::new();
    let mut chunk = [0u8; 4096];
    let mut total: Option<usize> = None;
    loop {
        if let Some(need) = total {
            if buf.len() >= need {
                return Ok(());
            }
        } else if let Some(body_start) = scan.find(&buf) {
            let frame = frame_len(&buf, body_start)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
            total = Some(frame);
            continue;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * pct / 100]
}

/// Client subprocess body: open `conns` keep-alive connections to
/// `addr`, complete one request on each, report `READY ok=<n>`, wait
/// for `GO` on stdin, then time `sample` request round trips over the
/// still-open connections and report `RESULT p50_us=<x> p99_us=<y>`.
pub fn client_main(addr: &str, conns: usize, sample: usize) -> ! {
    let request = request_bytes();
    let mut socks: Vec<TcpStream> = Vec::with_capacity(conns);
    for _ in 0..conns {
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if attempt < 5 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20 << attempt));
                    let _ = e;
                }
                Err(e) => {
                    eprintln!("e15 client: connect failed after retries: {e}");
                    std::process::exit(2);
                }
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("set_read_timeout");
        stream.set_nodelay(true).ok();
        socks.push(stream);
    }

    // Wave 1: a full round trip on every connection. Writes first, then
    // reads, so the server handles the whole population concurrently
    // rather than one lockstep connection at a time.
    for s in &mut socks {
        if s.write_all(&request).is_err() {
            break;
        }
    }
    let mut ok = 0usize;
    for s in &mut socks {
        if read_one_response(s).is_ok() {
            ok += 1;
        }
    }
    println!("READY ok={ok}");
    std::io::stdout().flush().ok();

    let mut line = String::new();
    std::io::stdin().read_line(&mut line).ok();

    // Latency sample over live connections — every other connection in
    // the population stays open, so the number reflects service under
    // density, not an idle server.
    let mut lat: Vec<u64> = Vec::with_capacity(sample);
    for s in socks.iter_mut().take(sample) {
        let t = Instant::now();
        if s.write_all(&request).is_err() || read_one_response(s).is_err() {
            continue;
        }
        lat.push(t.elapsed().as_micros() as u64);
    }
    lat.sort_unstable();
    println!(
        "RESULT p50_us={} p99_us={}",
        percentile(&lat, 50),
        percentile(&lat, 99)
    );
    std::io::stdout().flush().ok();
    std::process::exit(0);
}

fn parse_field(line: &str, key: &str) -> Option<u64> {
    let marker = format!("{key}=");
    let rest = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&marker))?;
    rest.parse().ok()
}

fn parse_field_f64(line: &str, key: &str) -> Option<f64> {
    let marker = format!("{key}=");
    let rest = line
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&marker))?;
    rest.parse().ok()
}

/// Server subprocess body: launch the server, drive the client
/// subprocess through the READY/GO/RESULT protocol, and return the row
/// the bin prints as a single `ROW ...` line for the orchestrator.
pub fn serve(conns: usize, sample: usize) -> std::io::Result<E15Row> {
    let router = Router::new();
    router.deploy(
        "Echo",
        Arc::new(|_req: &Request| Response::ok("text/plain", "ok")),
    );
    let config = ServerConfig {
        workers: 4,
        max_connections: None,
        drain_deadline: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = TcpServer::launch_with(0, router, config)?;
    let addr = server.addr().to_string();

    let started = Instant::now();
    let rss_before_kb = rss_kb();

    let mut child = Command::new(std::env::current_exe()?)
        .args([
            "--e15-client",
            &addr,
            &conns.to_string(),
            &sample.to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let mut stdin = child.stdin.take().expect("client stdin");
    let mut lines = BufReader::new(child.stdout.take().expect("client stdout")).lines();

    let ready = lines
        .next()
        .transpose()?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
    let wave_ok = parse_field(&ready, "ok").unwrap_or(0) as usize;
    // The client holds every connection open right now: this is the
    // density measurement.
    let held_conns = server.active_connections();
    let rss_after_kb = rss_kb();

    writeln!(stdin, "GO")?;
    stdin.flush()?;
    let result = lines
        .next()
        .transpose()?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::UnexpectedEof))?;
    let p50_us = parse_field(&result, "p50_us").unwrap_or(0);
    let p99_us = parse_field(&result, "p99_us").unwrap_or(0);
    child.wait()?;

    let wall_ms = started.elapsed().as_millis() as u64;
    let kb_per_conn = rss_after_kb.saturating_sub(rss_before_kb) as f64 / held_conns.max(1) as f64;
    server.shutdown();

    Ok(E15Row {
        target_conns: conns,
        held_conns,
        wave_ok,
        rss_before_kb,
        rss_after_kb,
        kb_per_conn,
        p50_us,
        p99_us,
        wall_ms,
    })
}

/// Serialise a row as the one-line wire format between the server
/// subprocess and the orchestrator.
pub fn row_to_line(row: &E15Row) -> String {
    format!(
        "ROW target_conns={} held_conns={} wave_ok={} rss_before_kb={} rss_after_kb={} kb_per_conn={:.2} p50_us={} p99_us={} wall_ms={}",
        row.target_conns,
        row.held_conns,
        row.wave_ok,
        row.rss_before_kb,
        row.rss_after_kb,
        row.kb_per_conn,
        row.p50_us,
        row.p99_us,
        row.wall_ms,
    )
}

/// Parse the `ROW ...` line back into a row (orchestrator side).
pub fn row_from_line(line: &str) -> Option<E15Row> {
    Some(E15Row {
        target_conns: parse_field(line, "target_conns")? as usize,
        held_conns: parse_field(line, "held_conns")? as usize,
        wave_ok: parse_field(line, "wave_ok")? as usize,
        rss_before_kb: parse_field(line, "rss_before_kb")?,
        rss_after_kb: parse_field(line, "rss_after_kb")?,
        kb_per_conn: parse_field_f64(line, "kb_per_conn")?,
        p50_us: parse_field(line, "p50_us")?,
        p99_us: parse_field(line, "p99_us")?,
        wall_ms: parse_field(line, "wall_ms")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_nonzero_on_linux() {
        assert!(rss_kb() > 0);
    }

    #[test]
    fn row_line_round_trips() {
        let row = E15Row {
            target_conns: 10_000,
            held_conns: 10_000,
            wave_ok: 9_999,
            rss_before_kb: 5_000,
            rss_after_kb: 25_000,
            kb_per_conn: 2.0,
            p50_us: 120,
            p99_us: 900,
            wall_ms: 3_141,
        };
        let back = row_from_line(&row_to_line(&row)).expect("parse");
        assert_eq!(back.target_conns, 10_000);
        assert_eq!(back.held_conns, 10_000);
        assert_eq!(back.wave_ok, 9_999);
        assert_eq!(back.rss_after_kb, 25_000);
        assert!((back.kb_per_conn - 2.0).abs() < 1e-9);
        assert_eq!(back.p99_us, 900);
        assert_eq!(back.wall_ms, 3_141);
    }

    #[test]
    fn percentiles_pick_sane_ranks() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50), 50);
        assert_eq!(percentile(&sorted, 99), 99);
        assert_eq!(percentile(&[], 99), 0);
    }
}
