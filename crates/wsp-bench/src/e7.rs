//! E7 — end-to-end invocation round trips: HTTP vs P2PS pipes
//! (Figures 3 vs 5/6), real threads and real sockets/channels.
//!
//! Same contract, same handler, same payloads; the only variable is the
//! transport stack underneath the WSPeer API. The "http" row pays TCP
//! connection setup per call (`keep_alive: false`, the paper-era
//! `Connection: close` behaviour, set explicitly now that the binding
//! pools by default); P2PS pays return-pipe creation and the extra
//! WS-Addressing machinery.

use crate::common::{mean, percentile_f64};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsp_core::bindings::{HttpUddiBinding, HttpUddiConfig, P2psBinding, P2psConfig};
use wsp_core::{EventBus, LocatedService, Peer, ServiceQuery};
use wsp_p2ps::{PeerConfig, PeerId, ThreadNetwork};
use wsp_uddi::Registry;
use wsp_uddi::UddiClient;
use wsp_wsdl::{OperationDef, ServiceDescriptor, Value, XsdType};

/// One transport's latency profile.
#[derive(Debug, Clone)]
pub struct E7Row {
    pub transport: &'static str,
    pub payload_bytes: usize,
    pub calls: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// TCP connections the consumer opened over the measured calls
    /// (0 for P2PS: pipes between threads open none).
    pub connections: u64,
}

fn echo_descriptor() -> ServiceDescriptor {
    ServiceDescriptor::new("EchoBench", "urn:bench:echo").operation(
        OperationDef::new("echo")
            .input("data", XsdType::String)
            .returns(XsdType::String),
    )
}

fn echo_handler() -> Arc<dyn wsp_wsdl::ServiceHandler> {
    Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone()))
}

fn measure(
    consumer: &Peer,
    service: &LocatedService,
    payload_bytes: usize,
    calls: usize,
    transport: &'static str,
    connections_opened: impl Fn() -> u64,
) -> E7Row {
    let payload = Value::string("x".repeat(payload_bytes));
    // Warm-up.
    for _ in 0..3 {
        consumer
            .client()
            .invoke(service, "echo", std::slice::from_ref(&payload))
            .expect("warmup");
    }
    let opened_before = connections_opened();
    let mut samples = Vec::with_capacity(calls);
    for _ in 0..calls {
        let start = Instant::now();
        let out = consumer
            .client()
            .invoke(service, "echo", std::slice::from_ref(&payload))
            .expect("invoke");
        samples.push(start.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(out.as_str().map(str::len), Some(payload_bytes));
    }
    E7Row {
        transport,
        payload_bytes,
        calls,
        mean_ms: mean(&samples),
        p50_ms: percentile_f64(&samples, 50.0),
        p99_ms: percentile_f64(&samples, 99.0),
        connections: connections_opened() - opened_before,
    }
}

/// HTTP transport round trips, one connection per call.
pub fn http_rtt(payload_bytes: usize, calls: usize) -> E7Row {
    let registry = Registry::new();
    let provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry.clone(),
        EventBus::new(),
    ));
    provider
        .server()
        .deploy_and_publish(echo_descriptor(), echo_handler())
        .expect("deploy");
    let binding = HttpUddiBinding::new(
        UddiClient::direct(registry),
        EventBus::new(),
        HttpUddiConfig {
            keep_alive: false,
            ..HttpUddiConfig::default()
        },
    );
    let consumer = Peer::with_binding(&binding);
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("EchoBench"))
        .expect("locate");
    measure(&consumer, &service, payload_bytes, calls, "http", || {
        binding.pool_stats().misses
    })
}

/// HTTP with the keep-alive connection pool (transport ablation).
pub fn http_pooled_rtt(payload_bytes: usize, calls: usize) -> E7Row {
    let registry = Registry::new();
    let provider = Peer::with_binding(&HttpUddiBinding::with_local_registry(
        registry.clone(),
        EventBus::new(),
    ));
    provider
        .server()
        .deploy_and_publish(echo_descriptor(), echo_handler())
        .expect("deploy");
    let binding = HttpUddiBinding::new(
        UddiClient::direct(registry),
        EventBus::new(),
        HttpUddiConfig {
            keep_alive: true,
            ..HttpUddiConfig::default()
        },
    );
    let consumer = Peer::with_binding(&binding);
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("EchoBench"))
        .expect("locate");
    measure(
        &consumer,
        &service,
        payload_bytes,
        calls,
        "http+keepalive",
        || binding.pool_stats().misses,
    )
}

/// P2PS pipe transport round trips.
pub fn p2ps_rtt(payload_bytes: usize, calls: usize) -> E7Row {
    let network = ThreadNetwork::new();
    let rv = network.spawn(PeerConfig::rendezvous(PeerId(0xE700)));
    let provider_peer = network.spawn(PeerConfig::ordinary(PeerId(0xE701)));
    let consumer_peer = network.spawn(PeerConfig::ordinary(PeerId(0xE702)));
    for p in [&provider_peer, &consumer_peer] {
        p.add_neighbour(rv.id(), true);
        rv.add_neighbour(p.id(), false);
    }
    let provider = Peer::with_binding(&P2psBinding::new(
        provider_peer,
        EventBus::new(),
        P2psConfig::default(),
    ));
    provider
        .server()
        .deploy_and_publish(echo_descriptor(), echo_handler())
        .expect("deploy");
    std::thread::sleep(Duration::from_millis(150));
    let consumer = Peer::with_binding(&P2psBinding::new(
        consumer_peer,
        EventBus::new(),
        P2psConfig {
            discovery_window: Duration::from_millis(400),
            ..P2psConfig::default()
        },
    ));
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("EchoBench"))
        .expect("locate");
    let row = measure(&consumer, &service, payload_bytes, calls, "p2ps", || 0);
    drop(rv);
    row
}

/// The published sweep: both transports across payload sizes.
pub fn sweep(calls: usize) -> Vec<E7Row> {
    let mut rows = Vec::new();
    for payload in [32usize, 1024, 16 * 1024] {
        rows.push(http_rtt(payload, calls));
        rows.push(http_pooled_rtt(payload, calls));
        rows.push(p2ps_rtt(payload, calls));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_transports_complete_small_payload_quickly() {
        let http = http_rtt(64, 10);
        let p2ps = p2ps_rtt(64, 10);
        // Loopback round trips: single-digit-to-low-tens of ms.
        assert!(http.mean_ms < 250.0, "{http:?}");
        assert!(p2ps.mean_ms < 250.0, "{p2ps:?}");
    }

    #[test]
    fn keep_alive_beats_connection_per_call() {
        // What keep-alive saves is connection set-up, so count the
        // connections: two clock readings on a shared CI box can land
        // either way round.
        let plain = http_rtt(64, 20);
        let pooled = http_pooled_rtt(64, 20);
        assert_eq!(plain.connections, 20, "{plain:?}");
        assert_eq!(
            pooled.connections, 0,
            "warm-up opened the only one: {pooled:?}"
        );
    }

    #[test]
    fn large_payloads_cost_more_than_small() {
        let small = http_rtt(32, 8);
        let large = http_rtt(256 * 1024, 8);
        assert!(large.mean_ms > small.mean_ms, "{small:?} vs {large:?}");
    }
}
