//! Shared fixtures for the cross-crate integration tests.

use std::sync::Arc;
use std::time::Duration;
use wsp_core::bindings::{P2psBinding, P2psConfig};
use wsp_core::{EventBus, Peer};
use wsp_p2ps::{PeerConfig, PeerId, ThreadNetwork, ThreadPeer};
use wsp_wsdl::{OperationDef, ServiceDescriptor, ServiceHandler, Value, XsdType};

/// A calculator contract exercising several XSD types and a one-way
/// operation.
pub fn calc_descriptor() -> ServiceDescriptor {
    ServiceDescriptor::new("Calc", "urn:wspeer:test:calc")
        .doc("integration-test calculator")
        .property("suite", "integration")
        .operation(
            OperationDef::new("add")
                .input("a", XsdType::Double)
                .input("b", XsdType::Double)
                .returns(XsdType::Double),
        )
        .operation(
            OperationDef::new("concat")
                .input("parts", XsdType::Array(Box::new(XsdType::String)))
                .returns(XsdType::String),
        )
        .operation(OperationDef::new("fail").returns(XsdType::String))
        .operation(
            OperationDef::new("log")
                .input("line", XsdType::String)
                .one_way(),
        )
}

/// Handler for [`calc_descriptor`].
pub fn calc_handler() -> Arc<dyn ServiceHandler> {
    Arc::new(|op: &str, args: &[Value]| match op {
        "add" => Ok(Value::Double(
            args[0].as_double().unwrap() + args[1].as_double().unwrap(),
        )),
        "concat" => {
            let joined: String = args[0]
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str())
                .collect();
            Ok(Value::string(joined))
        }
        "fail" => Err(wsp_soap::Fault::receiver("deliberate failure")),
        "log" => Ok(Value::Null),
        other => Err(wsp_soap::Fault::sender(format!("no {other}"))),
    })
}

/// A tiny threaded P2PS fabric: one rendezvous, n ordinary peers wired
/// to it. Returns (network, rendezvous handle, peers).
pub fn p2ps_star(n: usize) -> (ThreadNetwork, ThreadPeer, Vec<ThreadPeer>) {
    let network = ThreadNetwork::new();
    let rendezvous = network.spawn(PeerConfig::rendezvous(PeerId(0xF000)));
    let peers: Vec<ThreadPeer> = (0..n)
        .map(|i| {
            let peer = network.spawn(PeerConfig::ordinary(PeerId(0xF100 + i as u64)));
            peer.add_neighbour(rendezvous.id(), true);
            rendezvous.add_neighbour(peer.id(), false);
            peer
        })
        .collect();
    (network, rendezvous, peers)
}

/// Build a WSPeer `Peer` over a threaded P2PS peer with a short
/// discovery window suitable for tests.
pub fn p2ps_wspeer(thread_peer: ThreadPeer) -> (Peer, P2psBinding) {
    let binding = P2psBinding::new(
        thread_peer,
        EventBus::new(),
        P2psConfig {
            discovery_window: Duration::from_millis(400),
            request_timeout: Duration::from_secs(3),
        },
    );
    (Peer::with_binding(&binding), binding)
}

/// Wait until `predicate` is true, up to `timeout`. Returns whether it
/// became true.
pub fn wait_until(timeout: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let deadline = std::time::Instant::now() + timeout;
    while std::time::Instant::now() < deadline {
        if predicate() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    predicate()
}
