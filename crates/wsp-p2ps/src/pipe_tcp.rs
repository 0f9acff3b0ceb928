//! TCP pipe endpoints on the shared reactor core.
//!
//! The thread driver moves [`P2psMessage`]s over in-process channels;
//! this module gives pipes a real wire form so a peer can host many
//! inbound pipe connections without a thread each. Framing is minimal —
//! a 4-byte big-endian length prefix followed by the message's XML —
//! and the I/O runs on the same readiness-driven [`Reactor`] code that
//! serves the HTTP binding. The reactor runs the listener's drain
//! lifecycle as it does for HTTP; a pipe supplies only its
//! [`ConnProtocol`], and a refused pipe connection gets no reply: it is
//! dropped.
//!
//! Pipes are unidirectional in P2PS; request/response is built from a
//! pipe pair via `ReplyTo` (see [`crate::rpc`]). At the framing layer we
//! still allow the handler to answer on the same TCP connection (the
//! "virtual pipe pair" shortcut): a handler returning `None` models the
//! pure one-way pipe, `Some(reply)` the paired return pipe.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;
use wsp_telemetry::clock;

use wsp_http::reactor::{ConnProtocol, Io, JobResult, Reactor, ReactorConfig};
use wsp_http::TimerKind;

use crate::message::P2psMessage;

/// Frames larger than this are a protocol violation and drop the
/// connection (adverts and SOAP payloads are orders of magnitude
/// smaller).
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// A received message is handled on a reactor thread, outside the
/// connection's lock; `Some` sends a framed reply back down the same
/// connection, `None` stays silent.
pub type PipeHandler = Arc<dyn Fn(P2psMessage) -> Option<P2psMessage> + Send + Sync>;

/// Configuration for a [`PipeTcpServer`].
#[derive(Clone)]
pub struct PipeTcpConfig {
    /// Close connections idle (no partial frame buffered) this long.
    /// `None` keeps them open until the peer or shutdown closes them.
    pub idle_timeout: Option<Duration>,
    /// A started frame must arrive in full within this deadline.
    pub frame_deadline: Duration,
    /// Most handlers running at once (the reactor's handler permits).
    pub workers: usize,
}

impl Default for PipeTcpConfig {
    fn default() -> Self {
        PipeTcpConfig {
            idle_timeout: None,
            frame_deadline: Duration::from_secs(10),
            workers: 2,
        }
    }
}

/// Encode one length-prefixed frame.
pub fn encode_frame(message: &P2psMessage) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    message.to_xml_into(&mut frame);
    let len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    frame
}

/// Try to split one complete frame off the front of `buf`. Returns the
/// decoded message, or `Ok(None)` if more bytes are needed.
/// Oversized or unparseable frames are errors (the connection dies).
fn decode_frame(buf: &mut Vec<u8>) -> Result<Option<P2psMessage>, ()> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(());
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let xml = std::str::from_utf8(&buf[4..4 + len]).map_err(|_| ())?;
    let message = P2psMessage::from_xml(xml).ok_or(())?;
    buf.drain(..4 + len);
    Ok(Some(message))
}

/// One inbound pipe connection. Decision state is two booleans — is a
/// frame partially buffered, and are handler jobs in flight — which
/// drive the two timers (frame deadline via `Head`, idleness via
/// `Idle`) exactly like the HTTP connection's staged deadlines.
struct PipeProto {
    handler: PipeHandler,
    config: PipeTcpConfig,
    in_flight: usize,
    mid_frame: bool,
}

impl PipeProto {
    fn rearm_idle(&self, io: &mut Io<'_>) {
        if let Some(after) = self.config.idle_timeout {
            io.arm_timer(TimerKind::Idle, after);
        }
    }
}

impl ConnProtocol for PipeProto {
    fn on_open(&mut self, io: &mut Io<'_>) {
        if io.draining() {
            io.close();
            return;
        }
        self.rearm_idle(io);
    }

    fn on_data(&mut self, io: &mut Io<'_>) {
        loop {
            match decode_frame(io.read_buf) {
                Ok(Some(message)) => {
                    let handler = Arc::clone(&self.handler);
                    self.in_flight += 1;
                    io.dispatch(Box::new(move || match handler(message) {
                        Some(reply) => JobResult {
                            bytes: encode_frame(&reply),
                            close: false,
                        },
                        None => JobResult {
                            bytes: Vec::new(),
                            close: false,
                        },
                    }));
                }
                Ok(None) => break,
                Err(()) => {
                    io.abort();
                    return;
                }
            }
        }
        let was_mid_frame = self.mid_frame;
        self.mid_frame = !io.read_buf.is_empty();
        if self.mid_frame && !was_mid_frame {
            // The frame clock starts at its first byte.
            io.cancel_timer(TimerKind::Idle);
            io.arm_timer(TimerKind::Head, self.config.frame_deadline);
        } else if !self.mid_frame && was_mid_frame {
            io.cancel_timer(TimerKind::Head);
            self.rearm_idle(io);
        } else if !self.mid_frame && self.in_flight == 0 {
            self.rearm_idle(io);
        }
    }

    fn on_timer(&mut self, io: &mut Io<'_>, kind: TimerKind) {
        match kind {
            // Frame deadline exceeded or idle too long: drop the pipe.
            TimerKind::Head | TimerKind::Idle => io.abort(),
            TimerKind::Body => {}
        }
    }

    fn on_job_done(&mut self, io: &mut Io<'_>, result: JobResult) {
        self.in_flight = self.in_flight.saturating_sub(1);
        if !result.bytes.is_empty() {
            io.queue_write(&result.bytes);
        }
        if io.draining() && self.in_flight == 0 {
            io.close(); // flush the last reply, then go
        }
    }

    fn on_drain(&mut self, io: &mut Io<'_>) {
        if self.in_flight == 0 && io.unflushed() == 0 {
            io.close();
        }
        // Otherwise on_job_done/on_write_flushed close after the
        // in-flight work answers.
    }

    fn on_write_flushed(&mut self, io: &mut Io<'_>) {
        if io.draining() && self.in_flight == 0 {
            io.close();
        }
    }
}

/// How long [`PipeTcpServer::shutdown`] lets in-flight handlers answer.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// A reactor-hosted endpoint accepting framed pipe connections.
pub struct PipeTcpServer {
    reactor: Reactor,
}

impl PipeTcpServer {
    /// Bind `addr` and serve framed messages to `handler` on the
    /// reactor's threads. Pass port 0 to let the OS pick (see
    /// [`Self::addr`]).
    pub fn launch<A, F>(addr: A, handler: F, config: PipeTcpConfig) -> io::Result<PipeTcpServer>
    where
        A: ToSocketAddrs,
        F: Fn(P2psMessage) -> Option<P2psMessage> + Send + Sync + 'static,
    {
        let handler: PipeHandler = Arc::new(handler);
        let reactor_config = ReactorConfig {
            workers: config.workers.max(1),
            max_connections: None,
        };
        let reactor = Reactor::spawn(
            TcpListener::bind(addr)?,
            reactor_config,
            move |_| {
                Box::new(PipeProto {
                    handler: Arc::clone(&handler),
                    config: config.clone(),
                    in_flight: 0,
                    mid_frame: false,
                })
            },
            |_| Vec::new(),
        )?;
        Ok(PipeTcpServer { reactor })
    }

    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.reactor.addr()
    }

    /// Live (accepted, not yet closed) pipe connections.
    pub fn active_connections(&self) -> usize {
        self.reactor.active()
    }

    /// Stop accepting, let in-flight handlers answer (for up to 5 s),
    /// then stop. Returns `true` when every pipe closed inside the
    /// deadline; on `false` the stragglers were cut off.
    pub fn shutdown(&self) -> bool {
        self.reactor.shutdown(clock::now() + DRAIN_DEADLINE)
    }
}

/// Write one framed message to `stream`.
pub fn write_frame(stream: &mut TcpStream, message: &P2psMessage) -> io::Result<()> {
    stream.write_all(&encode_frame(message))
}

/// Read one framed message from `stream` (blocking, honouring the
/// stream's read timeout).
pub fn read_frame(stream: &mut TcpStream) -> io::Result<P2psMessage> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        ));
    }
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    let xml = std::str::from_utf8(&body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    P2psMessage::from_xml(xml)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable P2PS message"))
}

/// One blocking request/response exchange over a fresh pipe connection.
pub fn pipe_call<A: ToSocketAddrs>(
    addr: A,
    message: &P2psMessage,
    timeout: Duration,
) -> io::Result<P2psMessage> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout.max(Duration::from_millis(1))))?;
    write_frame(&mut stream, message)?;
    read_frame(&mut stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advert::PipeAdvertisement;
    use crate::id::PeerId;

    fn sample(name: &str) -> P2psMessage {
        P2psMessage::PipeData {
            to: PipeAdvertisement::new(PeerId(7), None, name),
            payload: format!("<x>{name}</x>"),
        }
    }

    fn payload_of(message: &P2psMessage) -> &str {
        match message {
            P2psMessage::PipeData { to, .. } => to.name.as_str(),
            _ => panic!("unexpected message variant"),
        }
    }

    #[test]
    fn frame_round_trips() {
        let mut buf = encode_frame(&sample("echo"));
        let decoded = decode_frame(&mut buf).unwrap().unwrap();
        assert_eq!(payload_of(&decoded), "echo");
        assert!(buf.is_empty(), "frame fully consumed");
    }

    #[test]
    fn decode_waits_for_full_frame_and_rejects_garbage() {
        let whole = encode_frame(&sample("partial"));
        let mut buf = whole[..whole.len() - 1].to_vec();
        assert!(decode_frame(&mut buf).unwrap().is_none(), "incomplete");
        buf.push(*whole.last().unwrap());
        assert!(decode_frame(&mut buf).unwrap().is_some());

        let mut oversized = (MAX_FRAME_LEN as u32 + 1).to_be_bytes().to_vec();
        oversized.extend_from_slice(b"x");
        assert!(decode_frame(&mut oversized).is_err(), "oversized length");

        let mut junk = 5u32.to_be_bytes().to_vec();
        junk.extend_from_slice(b"<<<<<");
        assert!(decode_frame(&mut junk).is_err(), "unparseable XML");
    }

    /// Byte soup for the frame reader: a stream of valid frames cut into
    /// any pieces decodes into the messages it decodes into whole; the
    /// same stream damaged at a byte, or plain soup, is read until it
    /// waits for more or is refused — never with a panic.
    #[test]
    fn frame_reader_reads_any_split_and_survives_any_soup() {
        use proptest::test_runner::TestRng;
        const TEXT: [&str; 8] = [
            "<",
            "&",
            "<![CDATA[x]]>",
            "é",
            "\u{1F600}",
            "x",
            "</x>",
            "\0",
        ];
        let mut rng = TestRng::for_test("pipe_tcp::frame_soup");
        let next = |rng: &mut TestRng| match rng.below(3) {
            0 => P2psMessage::Ping {
                nonce: rng.next_u64(),
            },
            _ => P2psMessage::PipeData {
                to: PipeAdvertisement::new(PeerId(rng.next_u64()), None, "soup"),
                payload: (0..rng.below(6))
                    .map(|_| TEXT[rng.below(TEXT.len() as u64) as usize])
                    .collect(),
            },
        };
        let drain = |buf: &mut Vec<u8>| {
            let mut read = Vec::new();
            while let Ok(Some(message)) = decode_frame(buf) {
                read.push(message);
            }
            read
        };
        for _ in 0..2_000 {
            let messages: Vec<P2psMessage> = (0..rng.below(4)).map(|_| next(&mut rng)).collect();
            let stream: Vec<u8> = messages.iter().flat_map(encode_frame).collect();
            let (mut buf, mut read, mut at) = (Vec::new(), Vec::new(), 0);
            while at < stream.len() {
                let step = 1 + rng.below(stream.len() as u64) as usize;
                let end = (at + step).min(stream.len());
                buf.extend_from_slice(&stream[at..end]);
                read.extend(drain(&mut buf));
                at = end;
            }
            assert_eq!(read, messages);
            assert!(buf.is_empty());
            let mut damaged = stream.clone();
            if let Some(byte) = damaged.get_mut(rng.below(stream.len() as u64 + 1) as usize) {
                *byte = rng.next_u64() as u8;
            }
            drain(&mut damaged);
            // A short length, so the bytes behind it are read as a frame.
            let mut soup = (rng.below(16) as u32).to_be_bytes().to_vec();
            soup.extend((0..rng.below(16)).map(|_| rng.next_u64() as u8));
            drain(&mut soup);
        }
    }

    #[test]
    fn server_answers_pipe_calls_over_the_reactor() {
        let server = PipeTcpServer::launch(
            "127.0.0.1:0",
            |message| match message {
                P2psMessage::PipeData { to, payload } => Some(P2psMessage::PipeData {
                    to: PipeAdvertisement::new(to.peer, to.service, format!("{}-ack", to.name)),
                    payload,
                }),
                _ => None,
            },
            PipeTcpConfig::default(),
        )
        .unwrap();

        let reply = pipe_call(server.addr(), &sample("query"), Duration::from_secs(5)).unwrap();
        assert_eq!(payload_of(&reply), "query-ack");

        // Several frames down one connection (pipelined).
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        for name in ["a", "b", "c"] {
            write_frame(&mut stream, &sample(name)).unwrap();
        }
        let mut names: Vec<String> = (0..3)
            .map(|_| payload_of(&read_frame(&mut stream).unwrap()).to_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["a-ack", "b-ack", "c-ack"]);
        drop(stream);

        server.shutdown();
    }

    #[test]
    fn three_frames_in_one_segment_get_three_replies_while_the_first_handler_blocks() {
        // The first frame's handler waits for the third frame's: the
        // three jobs of one callback must not queue behind each other.
        let (third_ran, wait_for_third) = std::sync::mpsc::channel::<()>();
        let third_ran = parking_lot::Mutex::new(third_ran);
        let wait_for_third = parking_lot::Mutex::new(wait_for_third);
        let server = PipeTcpServer::launch(
            "127.0.0.1:0",
            move |message| {
                match payload_of(&message) {
                    "first" => wait_for_third
                        .lock()
                        .recv_timeout(Duration::from_secs(10))
                        .expect("the third frame's handler ran meanwhile"),
                    "third" => third_ran.lock().send(()).unwrap(),
                    _ => {}
                }
                Some(message)
            },
            PipeTcpConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let segment: Vec<u8> = ["first", "second", "third"]
            .iter()
            .flat_map(|name| encode_frame(&sample(name)))
            .collect();
        stream.write_all(&segment).unwrap();
        let mut names: Vec<String> = (0..3)
            .map(|_| payload_of(&read_frame(&mut stream).unwrap()).to_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["first", "second", "third"]);
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn idle_pipe_reaped_by_reactor_timer() {
        let server = PipeTcpServer::launch(
            "127.0.0.1:0",
            |_| None,
            PipeTcpConfig {
                idle_timeout: Some(Duration::from_millis(50)),
                ..PipeTcpConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // The server should close us without any bytes sent.
        let mut probe = [0u8; 1];
        let n = stream.read(&mut probe).unwrap();
        assert_eq!(n, 0, "idle connection closed by the reaper");
        server.shutdown();
    }

    #[test]
    fn a_dropped_server_frees_its_port() {
        let server = PipeTcpServer::launch("127.0.0.1:0", Some, PipeTcpConfig::default()).unwrap();
        let addr = server.addr();
        drop(server);
        TcpListener::bind(addr).expect("the dropped server's port is free");
    }

    /// A server whose handler signals `entered` and then holds its
    /// reply until the test sends on `release`.
    fn held_server() -> (
        Arc<PipeTcpServer>,
        std::sync::mpsc::Receiver<()>,
        std::sync::mpsc::Sender<()>,
    ) {
        let (entered, wait_entered) = std::sync::mpsc::channel::<()>();
        let (release, wait_release) = std::sync::mpsc::channel::<()>();
        let (entered, wait_release) = (
            parking_lot::Mutex::new(entered),
            parking_lot::Mutex::new(wait_release),
        );
        let server = PipeTcpServer::launch(
            "127.0.0.1:0",
            move |message| {
                entered.lock().send(()).unwrap();
                (wait_release.lock())
                    .recv_timeout(Duration::from_secs(10))
                    .expect("released by the test");
                Some(message)
            },
            PipeTcpConfig::default(),
        )
        .unwrap();
        (Arc::new(server), wait_entered, release)
    }

    /// Open a pipe with a 10 s read timeout and send it one frame.
    fn send_one(server: &PipeTcpServer, name: &str) -> TcpStream {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let _ = write_frame(&mut stream, &sample(name));
        stream
    }

    /// A refused pipe gets no reply: EOF, or a reset if the frame it
    /// sent was still unread when the server dropped it.
    fn assert_closed_unanswered(stream: &mut TcpStream) {
        match stream.read(&mut [0u8; 1]) {
            Ok(n) => assert_eq!(n, 0, "a latecomer is never served"),
            Err(e) => assert_eq!(
                e.kind(),
                io::ErrorKind::ConnectionReset,
                "closed, not ignored"
            ),
        }
    }

    #[test]
    fn shutdown_answers_the_parked_call_and_drops_newcomers() {
        let (server, wait_entered, release) = held_server();
        let mut parked = send_one(&server, "parked");
        wait_entered.recv_timeout(Duration::from_secs(10)).unwrap();

        let stopping = Arc::clone(&server);
        let shutdown = std::thread::spawn(move || stopping.shutdown());
        while !server.reactor.is_draining() {
            std::thread::yield_now();
        }
        assert_closed_unanswered(&mut send_one(&server, "late"));
        assert!(
            !shutdown.is_finished(),
            "shutdown waits for the parked call"
        );

        release.send(()).unwrap();
        assert_eq!(payload_of(&read_frame(&mut parked).unwrap()), "parked");
        shutdown.join().unwrap();
        assert_eq!(server.active_connections(), 0);
    }

    #[test]
    fn a_drain_answers_the_held_frame_refuses_the_late_pipe_and_reports_clean() {
        let (server, wait_entered, release) = held_server();
        let mut held = send_one(&server, "held");
        wait_entered.recv_timeout(Duration::from_secs(10)).unwrap();
        let refused = wsp_telemetry::global().counter("reactor.accept_refused");
        let refused_before = refused.get();

        let stopping = Arc::clone(&server);
        let drain = std::thread::spawn(move || stopping.shutdown());
        while !server.reactor.is_draining() {
            std::thread::yield_now();
        }
        let mut late = send_one(&server, "late");
        assert_closed_unanswered(&mut late);
        assert!(refused.get() > refused_before, "the refusal is counted");

        release.send(()).unwrap();
        assert_eq!(payload_of(&read_frame(&mut held).unwrap()), "held");
        assert!(
            drain.join().unwrap(),
            "every pipe closed inside the deadline"
        );
        assert_eq!(server.active_connections(), 0);
    }
}
