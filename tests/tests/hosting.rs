//! One hosted-service pipeline, one service table and one admission
//! gate per peer, whatever substrate carries the request: the same
//! assertions over HTTP/UDDI and over P2PS, with the bindings built the
//! way every example and benchmark builds them — around a bus of their
//! own (`X::new(.., EventBus::new(), ..)`), the application listening
//! at the `Peer` root.
//!
//! The tests read the process-wide telemetry registry and ring, so they
//! take turns ([`serial`]) and key on service names of their own.

use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;
use std::time::Duration;
use wsp_core::bindings::{HttpUddiBinding, P2psBinding, P2psConfig};
use wsp_core::{
    telemetry, CollectingListener, EventBus, KeyedLoadShedPolicy, Peer, ResiliencePolicy,
    ServerPhase, ServiceQuery, WspError,
};
use wsp_http::{http_call_uri, Request};
use wsp_integration_tests::{p2ps_star, wait_until};
use wsp_soap::constants::CONTENT_TYPE;
use wsp_soap::typed::Rule;
use wsp_wsdl::{proxy, OperationDef, ServiceDescriptor, ServiceHandler, Value, XsdType};

fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    telemetry::global().set_enabled(true);
    TURN.lock()
}

/// A provider and a consumer on one substrate; `_fabric` keeps
/// whatever the two peers talk through alive.
struct World {
    provider: Peer,
    consumer: Peer,
    _fabric: Box<dyn std::any::Any>,
}

fn http_uddi_world() -> World {
    let registry = wsp_uddi::Registry::new();
    let peer = |registry: &wsp_uddi::Registry| {
        Peer::with_binding(&HttpUddiBinding::with_local_registry(
            registry.clone(),
            EventBus::new(),
        ))
    };
    World {
        provider: peer(&registry),
        consumer: peer(&registry),
        _fabric: Box::new(registry),
    }
}

fn p2ps_world() -> World {
    let (network, rendezvous, mut peers) = p2ps_star(2);
    let mut peer = || {
        let config = P2psConfig {
            discovery_window: Duration::from_millis(400),
            // Short: a call to a closed pipe waits this out.
            request_timeout: Duration::from_millis(500),
        };
        Peer::with_binding(&P2psBinding::new(
            peers.pop().unwrap(),
            EventBus::new(),
            config,
        ))
    };
    World {
        provider: peer(),
        consumer: peer(),
        _fabric: Box::new((network, rendezvous)),
    }
}

/// A one-operation service whose name (hence its telemetry detail) is
/// the test's own, answering `reply` whatever it is asked.
fn said(name: &str, reply: &'static str) -> (ServiceDescriptor, Arc<dyn ServiceHandler>) {
    let descriptor = ServiceDescriptor::new(name, "urn:wspeer:test:hosting").operation(
        OperationDef::new("say")
            .input("what", XsdType::String)
            .returns(XsdType::String),
    );
    let handler = Arc::new(move |_op: &str, _args: &[Value]| Ok(Value::string(reply)));
    (descriptor, handler)
}

impl World {
    /// Deploy and publish, and return once the consumer can find it
    /// (an advert takes a moment to reach the rendezvous).
    fn deploy(&self, name: &str, reply: &'static str) {
        let (descriptor, handler) = said(name, reply);
        self.provider
            .server()
            .deploy_and_publish(descriptor, handler)
            .unwrap();
        let found = || {
            self.consumer
                .client()
                .locate_one(&first_named(name))
                .is_ok()
        };
        assert!(
            wait_until(Duration::from_secs(10), found),
            "{name} never became discoverable"
        );
    }

    fn locate(&self, name: &str) -> wsp_core::LocatedService {
        self.consumer
            .client()
            .locate_one(&first_named(name))
            .unwrap()
    }

    fn say(&self, service: &wsp_core::LocatedService) -> Result<Value, WspError> {
        let args = [Value::string("anything")];
        let once = ResiliencePolicy::none();
        self.consumer
            .client()
            .invoke_with_policy(service, "say", &args, once)
    }
}

/// Capped at one hit, so a P2PS locate returns with the first answer
/// instead of collecting for its whole discovery window.
fn first_named(name: &str) -> ServiceQuery {
    ServiceQuery::by_name(name).with_max_results(1)
}

/// The stages recorded for `service`, oldest first.
fn server_stages(service: &str) -> Vec<&'static str> {
    let needle = format!("service={service}");
    telemetry::global()
        .recent_trace(1024)
        .iter()
        .filter(|span| span.stage.starts_with("server.") && span.detail.as_str().contains(&needle))
        .map(|span| span.stage)
        .collect()
}

fn serve_count() -> u64 {
    telemetry::global().histogram("server.serve_us").count()
}

// --- (a) the root listener hears the whole tree -------------------------------

/// C1/C2: one deploy → publish → locate → invoke; a listener added at
/// the `Peer` roots sees all five event kinds, the server's from both
/// sides of the engine.
fn five_kinds_reach_the_root(world: World, name: &str) {
    let listener = CollectingListener::new();
    world.provider.add_listener(listener.clone());
    world.deploy(name, "heard");
    // From here on: the one locate and the one invoke being counted.
    world.consumer.add_listener(listener.clone());
    let service = world.locate(name);
    assert_eq!(world.say(&service).unwrap(), Value::string("heard"));

    assert_eq!(listener.deployments.read().len(), 1, "deployment");
    assert_eq!(listener.publishes.read().len(), 1, "publish");
    assert_eq!(listener.discoveries.read().len(), 1, "discovery");
    assert_eq!(listener.client_messages.read().len(), 1, "client");
    let server = listener.server_messages.read();
    let phases: Vec<ServerPhase> = server.iter().map(|e| e.phase).collect();
    assert_eq!(phases, [ServerPhase::Inbound, ServerPhase::Outbound]);
    assert!(server.iter().all(|e| e.service == name));
}

#[test]
fn root_listener_hears_all_five_kinds_over_http_uddi() {
    let _turn = serial();
    five_kinds_reach_the_root(http_uddi_world(), "HeardHttp");
}

#[test]
fn root_listener_hears_all_five_kinds_over_p2ps() {
    let _turn = serial();
    five_kinds_reach_the_root(p2ps_world(), "HeardPipes");
}

/// C3: with nobody listening the provider answers without building
/// either envelope; a listener attached at its root still sees both,
/// whole, either side of the engine — and the caller cannot tell.
fn a_listener_sees_both_envelopes_and_the_reply_is_the_same(world: World, name: &str) {
    world.deploy(name, "heard");
    let service = world.locate(name);
    let unobserved = world.say(&service).unwrap();

    let listener = CollectingListener::new();
    world.provider.add_listener(listener.clone());
    let observed = world.say(&service).unwrap();
    assert_eq!(observed, unobserved);
    assert_eq!(observed, Value::string("heard"));

    let seen = listener.server_messages.read();
    let phases: Vec<ServerPhase> = seen.iter().map(|e| e.phase).collect();
    assert_eq!(phases, [ServerPhase::Inbound, ServerPhase::Outbound]);
    let (request, response) = (&seen[0].envelope, &seen[1].envelope);
    let argument = request.payload().expect("the operation element");
    assert!(argument.name().is("urn:wspeer:test:hosting", "say"));
    assert_eq!(argument.find_local("what").unwrap().text(), "anything");
    let result = response.payload().expect("the response element");
    assert!(result.name().is("urn:wspeer:test:hosting", "sayResponse"));
    assert_eq!(result.find_local("return").unwrap().text(), "heard");
    let asked = request.addressing().expect("an addressed request");
    let answered = response.addressing().expect("an addressed response");
    assert!(asked.to.is_some() && asked.action.is_some());
    assert_eq!(answered.relates_to, asked.message_id);
}

#[test]
fn a_root_listener_sees_full_envelopes_over_http_uddi() {
    let _turn = serial();
    a_listener_sees_both_envelopes_and_the_reply_is_the_same(http_uddi_world(), "SeenHttp");
}

#[test]
fn a_root_listener_sees_full_envelopes_over_p2ps() {
    let _turn = serial();
    a_listener_sees_both_envelopes_and_the_reply_is_the_same(p2ps_world(), "SeenPipes");
}

/// C3 for a request the one reader refuses — here one with two
/// `wsa:To` headers: a listener sees it as its refusal, then the fault
/// that answers it.
#[test]
fn a_root_listener_sees_a_refused_request_as_its_refusal() {
    let _turn = serial();
    let world = http_uddi_world();
    world.deploy("RefusedHttp", "never");
    let service = world.locate("RefusedHttp");
    let listener = CollectingListener::new();
    world.provider.add_listener(listener.clone());

    let args = [Value::string("anything")];
    let request = proxy::encode_request(service.descriptor(), &service.endpoint, "say", &args);
    let request = request.unwrap().to_xml();
    let to = request.find("<wsa:To").unwrap();
    let end = to + request[to..].find("</wsa:To>").unwrap() + "</wsa:To>".len();
    let twice = format!("{}{}", &request[..end], &request[to..]);
    let path = format!("/{}", service.name());
    let response = http_call_uri(&service.endpoint, Request::post(path, CONTENT_TYPE, twice));
    assert_eq!(response.unwrap().status, 500);

    let seen = listener.server_messages.read();
    let phases: Vec<ServerPhase> = seen.iter().map(|e| e.phase).collect();
    assert_eq!(phases, [ServerPhase::Inbound, ServerPhase::Outbound]);
    for event in seen.iter() {
        let fault = event.envelope.fault_body().expect("a fault, both ways");
        assert_eq!(Rule::of(fault), Some(Rule::Repeated), "{fault}");
    }
}

/// A reference the reader cannot expand is quoted in the fault that
/// refuses it, but only its first 64 bytes: `&`, a mebibyte of `&` and a
/// `;` used to come back as a 5 MiB fault.
#[test]
fn a_bad_reference_is_not_reflected_back_at_length() {
    let _turn = serial();
    let world = http_uddi_world();
    world.deploy("ReflectedHttp", "never");
    let service = world.locate("ReflectedHttp");

    let args = [Value::string("anything")];
    let request = proxy::encode_request(service.descriptor(), &service.endpoint, "say", &args);
    let garbage = format!("&{};", "&".repeat(1 << 20));
    let request = request.unwrap().to_xml().replacen("anything", &garbage, 1);
    let path = format!("/{}", service.name());
    let response = http_call_uri(
        &service.endpoint,
        Request::post(path, CONTENT_TYPE, request),
    );
    let response = response.unwrap();
    assert_eq!(response.status, 500);
    assert!(
        response.body.len() < 4096,
        "a {}-byte fault",
        response.body.len()
    );
}

// --- (b) a pipe-hosted call is timed and traced --------------------------------

#[test]
fn p2ps_hosted_call_moves_serve_us_and_leaves_request_and_response_spans() {
    let _turn = serial();
    let world = p2ps_world();
    world.deploy("TimedPipes", "timed");
    let service = world.locate("TimedPipes");
    // Locating read the definition pipe: exempt from the gate, outside
    // the pipeline.
    assert!(server_stages("TimedPipes").is_empty());
    let before = serve_count();
    assert_eq!(world.say(&service).unwrap(), Value::string("timed"));
    assert_eq!(serve_count(), before + 1);
    assert_eq!(
        server_stages("TimedPipes"),
        ["server.request", "server.response"]
    );
}

#[test]
fn p2ps_shed_call_leaves_a_shed_span_and_no_serve_sample() {
    let _turn = serial();
    let world = p2ps_world();
    // Queue budget 0: every request to a hosted service is shed.
    let shed_everything = KeyedLoadShedPolicy::bounded(usize::MAX, 0);
    world
        .provider
        .server()
        .set_load_shed_policy(shed_everything);
    world.deploy("ShedPipes", "never");
    let service = world.locate("ShedPipes");
    let before = serve_count();
    let error = world.say(&service).unwrap_err();
    assert!(matches!(error, WspError::Overloaded { .. }), "{error:?}");
    assert_eq!(serve_count(), before);
    assert_eq!(
        server_stages("ShedPipes"),
        ["server.request", "server.shed"]
    );
}

// --- (c) one table ----------------------------------------------------------------

/// Undeploy empties the server's table and the substrate stops
/// answering; deploying the name again with another handler is what
/// both the table and the wire serve from then on.
fn undeploy_then_redeploy(world: World, name: &str) {
    world.deploy(name, "first");
    let first = world.locate(name);
    assert_eq!(world.say(&first).unwrap(), Value::string("first"));

    assert!(world.provider.server().undeploy(name));
    assert!(world.provider.server().deployed_service(name).is_none());
    assert!(world.provider.server().hosting().service(name).is_none());
    world
        .say(&first)
        .expect_err("nothing answers for an undeployed service");

    world.deploy(name, "second");
    assert!(world.provider.server().deployed_service(name).is_some());
    assert_eq!(
        world.say(&world.locate(name)).unwrap(),
        Value::string("second")
    );
    // Deploying over a live deployment re-points it too.
    world.deploy(name, "third");
    assert_eq!(world.provider.server().deployed_services().len(), 1);
    assert_eq!(
        world.say(&world.locate(name)).unwrap(),
        Value::string("third")
    );
}

#[test]
fn undeploy_and_redeploy_go_through_the_one_table_over_http_uddi() {
    let _turn = serial();
    undeploy_then_redeploy(http_uddi_world(), "TableHttp");
}

#[test]
fn undeploy_and_redeploy_go_through_the_one_table_over_p2ps() {
    let _turn = serial();
    undeploy_then_redeploy(p2ps_world(), "TablePipes");
}
