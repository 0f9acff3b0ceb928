//! `invoke_small`, `invoke_large` (HTTP/UDDI binding, keep-alive) and
//! `p2ps_invoke` (P2PS binding on a `ThreadNetwork`): the same echo
//! application code over both bindings.

use super::{
    echo_descriptor, echo_handler, elapsed_ns, span, verify_echo, Fixture, OpClient, Outcome,
    ECHO_OPERATION, ECHO_SERVICE,
};
use crate::gen::{EchoGen, PayloadSize};
use crate::trace;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::bindings::{HttpUddiBinding, HttpUddiConfig, P2psBinding, P2psConfig};
use wsp_core::{EventBus, LocatedService, Peer, ServiceQuery};
use wsp_http::{ConnectionPool, HttpUri, Request};
use wsp_p2ps::{PeerConfig, PeerId, ThreadNetwork, ThreadPeer};
use wsp_soap::constants::CONTENT_TYPE;
use wsp_soap::Envelope;
use wsp_uddi::{Registry, UddiClient};
use wsp_wsdl::{ServiceProxy, Value};

// ---------------------------------------------------------------------------
// HTTP/UDDI binding
// ---------------------------------------------------------------------------

/// A provider peer hosting `EchoBench` on its lightweight HTTP host
/// (launched by the deploy), published to an in-process UDDI registry.
pub struct HttpEcho {
    registry: Registry,
    provider: Peer,
    size: PayloadSize,
}

impl HttpEcho {
    pub fn launch(size: PayloadSize) -> Result<HttpEcho, String> {
        let registry = Registry::new();
        let provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
            registry.clone(),
            EventBus::new(),
        ));
        provider
            .server()
            .deploy_and_publish(echo_descriptor(ECHO_SERVICE), echo_handler())
            .map_err(|e| format!("deploy {ECHO_SERVICE}: {e}"))?;
        Ok(HttpEcho {
            registry,
            provider,
            size,
        })
    }
}

impl Fixture for HttpEcho {
    fn client(&self, client: usize, seed: u64) -> Result<Box<dyn OpClient>, String> {
        // The one non-default setting of the benchmark: keep-alive, so
        // the steady state measures invocation, not connection set-up.
        let consumer = Peer::with_binding(&HttpUddiBinding::new(
            UddiClient::direct(self.registry.clone()),
            EventBus::new(),
            HttpUddiConfig {
                keep_alive: true,
                ..HttpUddiConfig::default()
            },
        ));
        let service = consumer
            .client()
            .locate_one(&ServiceQuery::by_name(ECHO_SERVICE))
            .map_err(|e| format!("locate {ECHO_SERVICE}: {e}"))?;
        let uri = HttpUri::parse(&service.endpoint).map_err(|e| e.to_string())?;
        Ok(Box::new(HttpEchoClient {
            gen: EchoGen::new(seed, client, self.size),
            proxy: ServiceProxy::new(service.wsdl.descriptor.clone(), service.endpoint.clone()),
            pool: ConnectionPool::new(),
            uri,
            consumer,
            service,
        }))
    }

    fn shutdown(self: Box<Self>) {
        self.provider.server().undeploy(ECHO_SERVICE);
    }
}

struct HttpEchoClient {
    gen: EchoGen,
    consumer: Peer,
    service: LocatedService,
    /// The stepwise path's own proxy and keep-alive connection.
    proxy: ServiceProxy,
    pool: ConnectionPool,
    uri: HttpUri,
}

impl HttpEchoClient {
    /// The invoke `HttpInvoker` performs, made by the bench itself one
    /// layer at a time with a span around each, so the traced run can
    /// say where the time of an invocation goes. It skips what
    /// `Client::invoke` wraps around the invoker (dispatch hand-off,
    /// resilience loop, events); `trace.core_client_us` prices that
    /// shell as the difference between the two paths.
    fn stepwise(&self, op: u64, payload: &Value, root: u64) -> Result<Value, String> {
        let body = {
            let _encode = trace::begin(span::ENCODE, op, root);
            let envelope = self
                .proxy
                .encode_request(ECHO_OPERATION, std::slice::from_ref(payload))
                .map_err(|e| e.to_string())?;
            let mut body = wsp_xml::BufPool::global().take();
            envelope.to_xml_into(&mut body);
            body
        };
        let response = {
            let _wire = trace::begin(span::WIRE, op, root);
            self.pool
                .call(
                    &self.uri.host,
                    self.uri.port,
                    Request::post(self.uri.target.clone(), CONTENT_TYPE, body),
                )
                .map_err(|e| e.to_string())?
        };
        if response.status != 200 {
            return Err(format!("endpoint answered HTTP {}", response.status));
        }
        let _decode = trace::begin(span::DECODE, op, root);
        let envelope = Envelope::from_xml(&response.body_str()).map_err(|e| e.to_string())?;
        self.proxy
            .decode_response(ECHO_OPERATION, &envelope)
            .map_err(|e| e.to_string())
    }
}

impl OpClient for HttpEchoClient {
    fn op(&mut self) -> Outcome {
        let input = self.gen.next_input();
        let payload = Value::string(input.payload);
        let started = Instant::now();
        let result = if trace::is_on() {
            let root = trace::begin(trace::ROOT, input.op, 0);
            self.stepwise(input.op, &payload, root.id())
        } else {
            self.consumer
                .client()
                .invoke(
                    &self.service,
                    ECHO_OPERATION,
                    std::slice::from_ref(&payload),
                )
                .map_err(|e| e.to_string())
        };
        let latency_ns = elapsed_ns(started);
        let sent = payload.as_str().expect("payload is a string");
        match result.and_then(|reply| verify_echo(sent, &reply)) {
            Ok(()) => Outcome::Ok {
                latency_ns,
                cache_hit: false,
            },
            Err(why) => Outcome::Failed(why),
        }
    }
}

// ---------------------------------------------------------------------------
// P2PS binding
// ---------------------------------------------------------------------------

/// Rendezvous + provider + consumer on a `ThreadNetwork` (E7's
/// topology). Both client threads invoke through the one consumer
/// peer, as two callers in one application would.
pub struct P2psEcho {
    provider: Peer,
    consumer: Arc<Peer>,
    /// Dropped last: the rendezvous peer must outlive the other two.
    _rendezvous: ThreadPeer,
}

impl P2psEcho {
    pub fn launch() -> Result<P2psEcho, String> {
        let network = ThreadNetwork::new();
        let rendezvous = network.spawn(PeerConfig::rendezvous(PeerId(0xBE00)));
        let provider_peer = network.spawn(PeerConfig::ordinary(PeerId(0xBE01)));
        let consumer_peer = network.spawn(PeerConfig::ordinary(PeerId(0xBE02)));
        for peer in [&provider_peer, &consumer_peer] {
            peer.add_neighbour(rendezvous.id(), true);
            rendezvous.add_neighbour(peer.id(), false);
        }
        let provider = Peer::with_binding(&P2psBinding::new(
            provider_peer,
            EventBus::new(),
            P2psConfig::default(),
        ));
        provider
            .server()
            .deploy_and_publish(echo_descriptor(ECHO_SERVICE), echo_handler())
            .map_err(|e| format!("deploy {ECHO_SERVICE} over P2PS: {e}"))?;
        let consumer = Peer::with_binding(&P2psBinding::new(
            consumer_peer,
            EventBus::new(),
            P2psConfig::default(),
        ));
        Ok(P2psEcho {
            provider,
            consumer: Arc::new(consumer),
            _rendezvous: rendezvous,
        })
    }
}

impl Fixture for P2psEcho {
    fn client(&self, client: usize, seed: u64) -> Result<Box<dyn OpClient>, String> {
        // The advert reaches the rendezvous peer asynchronously, and a
        // P2PS locate has no authoritative "not yet": ask until the
        // service shows up (each ask collects hits for the binding's
        // default discovery window).
        let deadline = Instant::now() + Duration::from_secs(10);
        let service = loop {
            match self
                .consumer
                .client()
                .locate_one(&ServiceQuery::by_name(ECHO_SERVICE))
            {
                Ok(service) => break service,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("locate {ECHO_SERVICE} over P2PS: {e}"))
                }
                Err(_) => {}
            }
        };
        Ok(Box::new(P2psEchoClient {
            gen: EchoGen::new(seed, client, PayloadSize::Small),
            consumer: self.consumer.clone(),
            service,
        }))
    }

    fn shutdown(self: Box<Self>) {
        self.provider.server().undeploy(ECHO_SERVICE);
    }
}

struct P2psEchoClient {
    gen: EchoGen,
    consumer: Arc<Peer>,
    service: LocatedService,
}

impl OpClient for P2psEchoClient {
    fn op(&mut self) -> Outcome {
        let input = self.gen.next_input();
        let payload = Value::string(input.payload);
        let started = Instant::now();
        let result = {
            let root = trace::begin(trace::ROOT, input.op, 0);
            let _invoke = trace::begin(span::INVOKE, input.op, root.id());
            self.consumer.client().invoke(
                &self.service,
                ECHO_OPERATION,
                std::slice::from_ref(&payload),
            )
        };
        let latency_ns = elapsed_ns(started);
        let sent = payload.as_str().expect("payload is a string");
        match result
            .map_err(|e| e.to_string())
            .and_then(|reply| verify_echo(sent, &reply))
        {
            Ok(()) => Outcome::Ok {
                latency_ns,
                cache_hit: false,
            },
            Err(why) => Outcome::Failed(why),
        }
    }
}
