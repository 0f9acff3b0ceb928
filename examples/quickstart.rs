//! Quickstart: the paper's Figure 3 end to end, in one process.
//!
//! A UDDI registry runs on its own lightweight HTTP host; a provider
//! peer deploys and publishes the classic Echo service (launching its
//! container-less HTTP server on first deploy); a consumer peer locates
//! it through the registry and invokes it — synchronously and then
//! asynchronously through the event listener.
//!
//! ```text
//! cargo run -p wsp-examples --bin quickstart
//! ```

use std::sync::Arc;
use wsp_core::{
    bindings::HttpUddiBinding, ClientMessageEvent, DeploymentMessageEvent, DiscoveryMessageEvent,
    EventBus, Peer, PeerMessageListener, PublishMessageEvent, ServerMessageEvent, ServiceQuery,
};
use wsp_uddi::RegistryServer;
use wsp_wsdl::{ServiceDescriptor, Value};

/// An application listener: WSPeer is event driven, so this is how an
/// application normally consumes results. Registered at the root of a
/// peer's tree it hears every node: the consumer's discovery and client
/// messages, the provider's deployment, publish and server messages.
struct Narrator;

impl PeerMessageListener for Narrator {
    fn on_deployment(&self, event: &DeploymentMessageEvent) {
        println!(
            "  [event] deployed {} at {:?}",
            event.service, event.endpoints
        );
    }

    fn on_publish(&self, event: &PublishMessageEvent) {
        match &event.result {
            Ok(key) => println!("  [event] published {} as {key}", event.service),
            Err(e) => println!("  [event] publishing {} failed: {e}", event.service),
        }
    }

    /// The provider sees every request before the messaging engine and
    /// every response after it — the application is its own container.
    fn on_server_message(&self, event: &ServerMessageEvent) {
        println!("  [event] server {:?} for {}", event.phase, event.service);
    }

    fn on_discovery(&self, event: &DiscoveryMessageEvent) {
        match &event.result {
            Ok(services) => println!(
                "  [event] discovery #{}: {} service(s)",
                event.token,
                services.len()
            ),
            Err(e) => println!("  [event] discovery #{} failed: {e}", event.token),
        }
    }

    fn on_client_message(&self, event: &ClientMessageEvent) {
        match &event.result {
            Ok(value) => println!(
                "  [event] response #{} from {}.{}: {:?}",
                event.token, event.service, event.operation, value
            ),
            Err(e) => println!("  [event] invocation #{} failed: {e}", event.token),
        }
    }
}

fn main() {
    println!("== WSPeer quickstart (HTTP/UDDI binding) ==\n");

    // A network-reachable UDDI registry.
    let registry = RegistryServer::launch(0).expect("launch registry");
    println!("registry listening at {}", registry.uri());

    // --- provider ---------------------------------------------------------
    let provider_binding = HttpUddiBinding::with_registry_uri(&registry.uri(), EventBus::new());
    let provider = Peer::with_binding(&provider_binding);
    provider.add_listener(Arc::new(Narrator));
    assert!(
        !provider_binding.host_running(),
        "no container until something is deployed"
    );

    let deployed = provider
        .server()
        .deploy_and_publish(
            ServiceDescriptor::echo(),
            Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
        )
        .expect("deploy Echo");
    println!(
        "provider deployed {} at {} (HTTP host launched lazily: {})",
        deployed.name(),
        deployed.primary_endpoint().unwrap(),
        provider_binding.host_running(),
    );

    // --- consumer ---------------------------------------------------------
    let consumer = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    consumer.add_listener(Arc::new(Narrator));

    println!("\nconsumer locating services named 'Echo%' ...");
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Echo%"))
        .expect("locate Echo");
    println!("found {} at {}", service.name(), service.endpoint);
    println!(
        "WSDL advertises {} operation(s)",
        service.wsdl.descriptor.operations.len()
    );

    // Synchronous invocation.
    let reply = consumer
        .client()
        .invoke(&service, "echoString", &[Value::string("hello, 2005")])
        .expect("invoke");
    println!("\nsync  invoke echoString(\"hello, 2005\") -> {reply:?}");

    // Asynchronous invocation: returns a correlation handle; the
    // listener reports the event with the same token, and flush() is a
    // deterministic barrier (no sleep-and-hope).
    let handle = consumer.client().invoke_async(
        service.clone(),
        "echoString",
        vec![Value::string("fire and collect later")],
    );
    println!("async invoke dispatched, token #{}", handle.token());
    consumer.dispatcher().flush();
    let stats = consumer.dispatcher().stats();
    println!(
        "dispatcher: {} submitted, {} completed, {} in flight",
        stats.submitted, stats.completed, stats.in_flight
    );

    registry.shutdown();
    println!("\ndone.");
}
