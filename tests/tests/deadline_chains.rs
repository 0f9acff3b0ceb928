//! The deadline rule along generated chains, on a virtual clock: a
//! client → gateway → HTTP backend chain, its budget crossing into the
//! gateway as `X-WSP-Deadline`, and the same chain entered over P2PS,
//! its budget in the `Deadline` SOAP block. The client stalls before
//! each of its attempts, every backend stalls before it answers or
//! dies mid-response, and the gateway fails over to the next backend.
//! Virtual time moves only by those stalls, so each case checks exact
//! arithmetic:
//!
//! * no hop forwards more whole milliseconds than it received, less
//!   the virtual time since;
//! * no backend is sent a budget from an expired caller;
//! * a sub-millisecond remnant fails locally.

use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wsp_core::overload::{Deadline, DEADLINE_HEADER, DEADLINE_SOAP_HEADER};
use wsp_core::telemetry::clock::{self, VirtualClock};
use wsp_gateway::{Gateway, GatewayConfig, GatewayError};
use wsp_http::{parse_request, Headers, HttpError};
use wsp_p2ps::{P2psMessage, PeerId, PipeAdvertisement};
use wsp_registry::{ClusterConfig, RegistryCluster, ShardedUddiClient};
use wsp_soap::{Envelope, HeaderBlock};
use wsp_uddi::{BindingTemplate, BusinessService};
use wsp_xml::Element;

const SERVICE: &str = "Chained";
/// As many backends as the gateway tries before it gives up.
const BACKENDS: usize = 3;
const CASES: u32 = 64;

/// What a backend does with one request: `stall_us` of virtual time
/// passes, then it answers or dies mid-response.
#[derive(Clone, Copy, Debug)]
struct Step {
    stall_us: u64,
    dies: bool,
}

/// One request as a backend read it.
#[derive(Clone, Copy, Debug)]
struct Receipt {
    budget_ms: Option<u64>,
    at: Instant,
}

/// What the backends share with the case that drives them.
#[derive(Default)]
struct Script {
    clock: Option<VirtualClock>,
    steps: VecDeque<Step>,
    log: Vec<Receipt>,
    /// Set when the fixture goes: the next connection ends a backend.
    stop: bool,
}

#[derive(Debug)]
struct Chain {
    /// The caller's own budget.
    budget_us: u64,
    /// The client's stall before each of its attempts.
    client_stalls: Vec<u64>,
    /// The backends' steps, in the order requests reach them.
    steps: Vec<Step>,
}

fn chain() -> impl Strategy<Value = Chain> {
    (
        0u64..40_000,
        proptest::collection::vec(0u64..6_000, 1..4),
        proptest::collection::vec((0u64..15_000, any::<bool>()), 0..10),
    )
        .prop_map(|(budget_us, client_stalls, steps)| Chain {
            budget_us,
            client_stalls,
            steps: (steps.into_iter())
                .map(|(stall_us, dies)| Step { stall_us, dies })
                .collect(),
        })
}

/// A raw-socket backend: one request per connection, recorded with the
/// virtual time it arrived at, then its step.
fn backend(script: Arc<Mutex<Script>>) -> (u16, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind backend");
    let port = listener.local_addr().unwrap().port();
    let serve = std::thread::spawn(move || {
        for conn in listener.incoming() {
            if script.lock().stop {
                return;
            }
            let Ok(mut conn) = conn else { continue };
            let (mut buf, mut chunk) = (Vec::new(), [0u8; 4096]);
            let request = loop {
                match parse_request(&buf) {
                    Ok((request, _)) => break Some(request),
                    Err(HttpError::Incomplete) => match conn.read(&mut chunk) {
                        Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
                        _ => break None,
                    },
                    Err(_) => break None,
                }
            };
            let Some(request) = request else { continue };
            let step = {
                let mut script = script.lock();
                let step = (script.steps.pop_front()).unwrap_or(Step {
                    stall_us: 0,
                    dies: false,
                });
                let clock = script.clock.clone().expect("a case is running");
                let budget_ms = (request.headers.get(DEADLINE_HEADER)).and_then(|v| v.parse().ok());
                let at = clock.now();
                script.log.push(Receipt { budget_ms, at });
                clock.advance(Duration::from_micros(step.stall_us));
                step
            };
            let body = Envelope::request(Element::build("urn:itest", "reply").text("ok").finish())
                .to_xml();
            // A dying backend promises more body than it sends.
            let promised = body.len() + if step.dies { 64 } else { 0 };
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/soap+xml; charset=utf-8\r\n\
                 Connection: close\r\nContent-Length: {promised}\r\n\r\n"
            );
            let _ = conn.write_all((head + &body).as_bytes());
        }
    });
    (port, serve)
}

/// How the gateway hop ended.
#[derive(Debug, PartialEq)]
enum Hop {
    Answered,
    /// The gateway's own refusal: its budget was gone before a send.
    ExpiredLocally,
    Failed,
}

/// What the cases reached, so that a run that never reaches an outcome
/// fails instead of passing vacuously.
#[derive(Debug, Default)]
struct Tally {
    backend_calls: usize,
    answered: usize,
    expired_at_gateway: usize,
    failed: usize,
    refused_by_client: usize,
}

impl Tally {
    fn assert_covered(&self) {
        let Tally {
            backend_calls,
            answered,
            expired_at_gateway,
            failed,
            refused_by_client,
        } = *self;
        let counts = [
            backend_calls,
            answered,
            expired_at_gateway,
            failed,
            refused_by_client,
        ];
        assert!(counts.iter().all(|&n| n > 0), "{self:?}");
    }
}

#[derive(Clone, Copy)]
enum Carrier {
    Header,
    SoapBlock,
}

struct Fixture {
    cluster: RegistryCluster,
    script: Arc<Mutex<Script>>,
    backends: Vec<(u16, JoinHandle<()>)>,
}

impl Fixture {
    fn new() -> Fixture {
        let cluster = RegistryCluster::new(ClusterConfig {
            nodes: 3,
            shard_count: 1,
            replication: 3,
            default_ttl: None,
        });
        let script = Arc::new(Mutex::new(Script::default()));
        let backends: Vec<_> = (0..BACKENDS).map(|_| backend(script.clone())).collect();
        let mut record = BusinessService::new("", "uddi:wspeer:chains", SERVICE);
        for (i, (port, _)) in backends.iter().enumerate() {
            let uri = format!("http://127.0.0.1:{port}/{SERVICE}");
            record = record.with_binding(BindingTemplate::new(format!("binding-{i}"), uri));
        }
        let fixture = Fixture {
            cluster,
            script,
            backends,
        };
        fixture.registry().publish(&record).expect("publish");
        fixture
    }

    fn registry(&self) -> ShardedUddiClient {
        let nodes = (0..3).map(|n| self.cluster.node_transport(n)).collect();
        ShardedUddiClient::connect(nodes).expect("bootstrap shard map")
    }

    /// One client → gateway → backend chain. A fresh gateway per case:
    /// breakers and caches start clean.
    fn run(&self, case: u32, chain: &Chain, carrier: Carrier, tally: &mut Tally) {
        let gateway = Gateway::new(self.registry(), GatewayConfig::default());
        let clock = VirtualClock::default();
        let _clock = clock.enter();
        {
            let mut script = self.script.lock();
            script.clock = Some(clock.clone());
            script.steps = chain.steps.iter().copied().collect();
        }
        let caller = Deadline::after(Duration::from_micros(chain.budget_us));
        for &stall_us in &chain.client_stalls {
            clock::sleep(Duration::from_micros(stall_us));
            let left = caller.remaining().as_micros() as u64;
            let Ok(sent) = caller.budget_ms() else {
                assert!(
                    left < 1000,
                    "case {case}: refused with {left} us left: {chain:?}"
                );
                tally.refused_by_client += 1;
                return;
            };
            assert!(
                sent * 1000 <= left,
                "case {case}: the client forwarded {sent} ms with {left} us left: {chain:?}"
            );
            let received = clock::now();
            let hop = match carrier {
                Carrier::Header => over_http(&gateway, sent),
                Carrier::SoapBlock => over_pipe(&gateway, sent),
            };
            let log = std::mem::take(&mut self.script.lock().log);
            tally.backend_calls += log.len();
            let left_of =
                |at: Instant| (sent * 1000).saturating_sub((at - received).as_micros() as u64);
            for receipt in &log {
                let left = left_of(receipt.at);
                assert!(
                    left >= 1000,
                    "case {case}: a backend was called with {left} us of {sent} ms left: {chain:?}"
                );
                let forwarded = receipt.budget_ms.expect("every forward carries the budget");
                assert!(
                    forwarded * 1000 <= left,
                    "case {case}: the gateway forwarded {forwarded} ms with {left} us left: {chain:?}"
                );
            }
            let left = left_of(clock::now());
            match hop {
                Hop::Answered => {
                    tally.answered += 1;
                    return;
                }
                Hop::ExpiredLocally => {
                    assert!(
                        left < 1000,
                        "case {case}: the gateway gave up with {left} us left: {chain:?}"
                    );
                    tally.expired_at_gateway += 1;
                }
                // With a backend still to try, a spent budget is the
                // gateway's own refusal, not another failure.
                Hop::Failed => {
                    assert!(
                        left >= 1000 || log.len() >= BACKENDS,
                        "case {case}: failed with {left} us left and a backend untried: {chain:?}"
                    );
                    tally.failed += 1;
                }
            }
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.script.lock().stop = true;
        for (port, serve) in self.backends.drain(..) {
            let _ = TcpStream::connect(("127.0.0.1", port));
            if serve.join().is_err() && !std::thread::panicking() {
                panic!("backend on port {port} panicked");
            }
        }
    }
}

fn request() -> Envelope {
    Envelope::request(Element::build("urn:itest", "ask").text("chain").finish())
}

/// The HTTP front's hop: the header read as the front reads it.
fn over_http(gateway: &Gateway, sent: u64) -> Hop {
    let mut headers = Headers::default();
    headers.set(DEADLINE_HEADER, sent.to_string());
    let raw = request().to_xml().into_bytes();
    let deadline = headers.get(DEADLINE_HEADER).and_then(Deadline::parse);
    match gateway.invoke("t", SERVICE, &raw, deadline) {
        Ok(_) => Hop::Answered,
        Err(GatewayError::Unavailable(why)) if why.contains("deadline expired") => {
            Hop::ExpiredLocally
        }
        Err(_) => Hop::Failed,
    }
}

/// The P2PS front's hop: the budget in the `Deadline` block of a pipe
/// request.
fn over_pipe(gateway: &Gateway, sent: u64) -> Hop {
    let mut envelope = request();
    let block = Element::build("", DEADLINE_SOAP_HEADER).text(sent.to_string());
    envelope.add_header(HeaderBlock::new(block.finish()));
    let to = PipeAdvertisement::new(PeerId(0xC4), Some(SERVICE.into()), "chain");
    let message = P2psMessage::PipeData {
        to,
        payload: envelope.to_xml(),
    };
    match gateway.handle_pipe(message) {
        Some(P2psMessage::PipeData { payload, .. }) if payload.contains("deadline expired") => {
            Hop::ExpiredLocally
        }
        Some(P2psMessage::PipeData { payload, .. }) if payload.contains("Fault>") => Hop::Failed,
        Some(P2psMessage::PipeData { .. }) => Hop::Answered,
        other => panic!("a pipe request is answered: {other:?}"),
    }
}

#[test]
fn http_chains_keep_the_deadline_rule() {
    let fixture = Fixture::new();
    let mut rng = TestRng::for_test("deadline_chains::http_chains_keep_the_deadline_rule");
    let mut tally = Tally::default();
    for case in 0..CASES {
        fixture.run(
            case,
            &chain().generate(&mut rng),
            Carrier::Header,
            &mut tally,
        );
    }
    tally.assert_covered();
}

#[test]
fn p2ps_chains_keep_the_deadline_rule() {
    let fixture = Fixture::new();
    let mut rng = TestRng::for_test("deadline_chains::p2ps_chains_keep_the_deadline_rule");
    let mut tally = Tally::default();
    for case in 0..CASES {
        fixture.run(
            case,
            &chain().generate(&mut rng),
            Carrier::SoapBlock,
            &mut tally,
        );
    }
    tally.assert_covered();
}
