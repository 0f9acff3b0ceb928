//! Locate without `GET ?wsdl`: a consumer that has fetched and verified
//! an interface builds the next service with that interface from its
//! registry record. These tests hold the shortcut to what the fetch
//! returns — the same document over generated interfaces, one fetch per
//! interface and none after it — and show that a record whose provider
//! serves something other than what the record claims never fills it.

use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::sync::Arc;
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::{EventBus, LocatedService, Peer, ServiceQuery};
use wsp_http::{http_call_uri, Request, Response, Router, TcpServer};
use wsp_integration_tests::{calc_descriptor, calc_handler};
use wsp_uddi::{BindingTemplate, BusinessService, Registry, RegistryServer, TModel};
use wsp_wsdl::{
    ComplexType, OperationDef, Param, Port, Schema, ServiceDescriptor, TransportKind, Value,
    WsdlDocument, XsdType,
};

/// The consumer half: a peer and its binding, whose pool carries the
/// `?wsdl` fetches (and invokes), never a registry exchange — so its
/// counters count fetches.
struct Consumer {
    binding: HttpUddiBinding,
    peer: Peer,
}

impl Consumer {
    fn new(binding: HttpUddiBinding) -> Consumer {
        Consumer {
            peer: Peer::with_binding(&binding),
            binding,
        }
    }

    fn calls(&self) -> u64 {
        let stats = self.binding.pool_stats();
        stats.hits + stats.misses
    }

    /// The one service named `name`, and how many calls locating it made.
    fn locate(&self, name: &str) -> (LocatedService, u64) {
        let before = self.calls();
        let found = self.peer.client().locate(&ServiceQuery::by_name(name));
        let mut found = found.expect("locate");
        assert_eq!(found.len(), 1, "{name}: {found:?}");
        (found.remove(0), self.calls() - before)
    }
}

/// What the provider at `endpoint` serves at `endpoint?wsdl`, as a
/// consumer reads it.
fn served(endpoint: &str) -> WsdlDocument {
    let response = http_call_uri(&format!("{endpoint}?wsdl"), Request::get("/")).expect("GET");
    assert!(
        response.is_success(),
        "{endpoint}: HTTP {}",
        response.status
    );
    WsdlDocument::from_xml(&response.body_str()).expect("WSDL")
}

fn renamed(descriptor: &ServiceDescriptor, name: &str) -> ServiceDescriptor {
    ServiceDescriptor {
        name: name.to_owned(),
        ..descriptor.clone()
    }
}

/// The WSDL tModel key a publisher derives.
fn claim(digest: u64, endpoint: &str) -> String {
    format!("uuid:tm-wsdl:{digest:016x}:{endpoint}")
}

/// A record naming `name` at `endpoint`, claiming interface `digest`,
/// saved as a publish would save it.
fn save_record(registry: &Registry, name: &str, endpoint: &str, digest: u64) {
    let tmodel = registry.save_tmodel(TModel::new(claim(digest, endpoint), "WSDL"));
    registry.save_service(
        BusinessService::new("", "biz", name)
            .with_binding(BindingTemplate::new("", endpoint).with_tmodel(&tmodel.key)),
    );
}

// --- generated interfaces ---------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-zA-Z0-9]{0,6}"
}

fn text() -> impl Strategy<Value = String> {
    // Printable ASCII: markup characters and spaces at either end too.
    "[ -~]{0,12}"
}

fn xsd_type() -> impl Strategy<Value = XsdType> {
    let simple = (prop_oneof![
        Just(XsdType::Boolean),
        Just(XsdType::Int),
        Just(XsdType::Long),
        Just(XsdType::Double),
        Just(XsdType::String),
        Just(XsdType::Base64Binary),
        Just(XsdType::AnyType),
        Just(XsdType::Complex("Frame".into())),
        Just(XsdType::Complex("Pair".into())),
    ])
    .boxed();
    let array = simple.clone().prop_map(|t| XsdType::Array(Box::new(t)));
    prop_oneof![simple.clone(), simple, array]
}

fn param() -> impl Strategy<Value = Param> {
    (ident(), xsd_type(), any::<bool>()).prop_map(|(name, ty, optional)| Param {
        name,
        ty,
        optional,
    })
}

fn operation() -> impl Strategy<Value = OperationDef> {
    let parts = (
        // Few names: two operations of one name do not survive the trip
        // through the WSDL (the second reads the first's messages).
        "[a-d]",
        vec(param(), 0..4),
        option::of(param()),
        option::of(text()),
    );
    parts.prop_map(|(name, inputs, output, documentation)| OperationDef {
        name,
        inputs,
        // `None` is a one-way operation.
        output,
        documentation,
    })
}

fn interface() -> impl Strategy<Value = ServiceDescriptor> {
    let types = vec(
        (prop_oneof![Just("Frame"), Just("Pair")], vec(param(), 0..3)),
        0..3,
    );
    let parts = (
        "urn:gen:[a-z]{1,6}",
        option::of(text()),
        vec((ident(), text()), 0..3),
        types,
        vec(operation(), 1..4),
    );
    parts.prop_map(
        |(namespace, documentation, properties, types, operations)| {
            let mut schema = Schema::new();
            for (name, fields) in types {
                schema.define(name, ComplexType::new(fields));
            }
            ServiceDescriptor {
                name: String::new(),
                namespace,
                operations,
                schema,
                documentation,
                properties,
            }
        },
    )
}

/// Over generated interfaces — documentation, properties, schema types,
/// one-way operations, optional parameters, markup and edge spaces in
/// the text: the service located second, rebuilt from its record and
/// the interface the first locate verified, is what `WsdlDocument::
/// from_xml` reads of its provider's `?wsdl`. It is rebuilt exactly when
/// the interface survives a trip through the WSDL; when it does not
/// (two operations of one name), the consumer fetches again.
#[test]
fn a_service_rebuilt_from_its_record_is_what_its_provider_serves() {
    let registry = Registry::new();
    let binding = || HttpUddiBinding::with_local_registry(registry.clone(), EventBus::new());
    let provider = Peer::with_binding(&binding());
    let consumer = Consumer::new(binding());
    let server = provider.server();
    let echo: Arc<dyn wsp_wsdl::ServiceHandler> = Arc::new(|_: &str, _: &[Value]| Ok(Value::Null));
    let mut rng =
        TestRng::for_test("a_service_rebuilt_from_its_record_is_what_its_provider_serves");
    let cases = 48;
    let mut rebuilt = 0;
    for case in 0..cases {
        let interface = interface().generate(&mut rng);
        let [first, second] = ["a", "b"].map(|side| format!("G{case}{side}"));
        for name in [&first, &second] {
            let deployed = server.deploy_and_publish(renamed(&interface, name), echo.clone());
            deployed.expect("deploy");
        }
        let (located, fetched) = consumer.locate(&first);
        assert_eq!(fetched, 1);
        assert_eq!(located.wsdl, served(&located.endpoint));
        let (located, fetched) = consumer.locate(&second);
        let wsdl = served(&located.endpoint);
        assert_eq!(located.wsdl, wsdl, "{interface:?}");
        let survives = wsdl.descriptor == renamed(&interface, &second);
        assert_eq!(fetched, u64::from(!survives), "{interface:?}");
        rebuilt += u64::from(survives);
        for name in [&first, &second] {
            server.undeploy(name);
        }
    }
    assert!(
        (4..=cases - 4).contains(&rebuilt),
        "{rebuilt} of {cases} cases rebuilt: both kinds want exercising"
    );
}

/// Over a registry on the wire: the first locate of an interface adds
/// one call to the consumer's pool — the `GET ?wsdl` — and a locate of
/// another service with that interface adds none. What it builds is
/// invoked like a fetched one.
#[test]
fn one_fetch_per_interface_and_none_after() {
    let registry = RegistryServer::launch(0).unwrap();
    let binding = || HttpUddiBinding::with_registry_uri(&registry.uri(), EventBus::new());
    let provider = Peer::with_binding(&binding());
    for name in ["CalcA", "CalcB"] {
        (provider.server())
            .deploy_and_publish(renamed(&calc_descriptor(), name), calc_handler())
            .unwrap();
    }
    let consumer = Consumer::new(binding());
    let (_, fetched) = consumer.locate("CalcA");
    assert_eq!(fetched, 1, "the first locate fetches the WSDL");
    let (b, fetched) = consumer.locate("CalcB");
    assert_eq!(fetched, 0, "the same interface is not fetched again");
    assert_eq!(b.name(), "CalcB");
    assert_eq!(b.wsdl, served(&b.endpoint));
    let (_, fetched) = consumer.locate("CalcA");
    assert_eq!(fetched, 0);
    let sum = consumer
        .peer
        .client()
        .invoke(&b, "add", &[Value::Double(40.0), Value::Double(2.0)]);
    assert_eq!(sum.unwrap(), Value::Double(42.0));
    registry.shutdown();
}

/// A record whose provider serves something other than what the record
/// claims is fetched on every locate and teaches the consumer nothing:
/// a record renaming another provider's service, a description with two
/// ports, a digest that is not the served interface's. Afterwards the
/// truthful record of that interface is still fetched once.
#[test]
fn a_record_its_fetch_contradicts_is_never_served_from_the_cache() {
    let registry = Registry::new();
    let binding = || HttpUddiBinding::with_local_registry(registry.clone(), EventBus::new());
    let provider = Peer::with_binding(&binding());
    let calc = calc_descriptor();
    let digest = calc.interface_digest();
    let calc_endpoint = {
        let deployed = provider.server().deploy(calc.clone(), calc_handler());
        deployed.unwrap().endpoints.remove(0)
    };
    // Another service's endpoint under a record of its own name.
    save_record(&registry, "Alias", &calc_endpoint, digest);
    // A claimed digest the served interface does not have.
    let liar = provider
        .server()
        .deploy(renamed(&calc, "Liar"), calc_handler());
    save_record(&registry, "Liar", &liar.unwrap().endpoints[0], digest ^ 1);
    // The right digest and name, and a second port beside the HTTP one.
    let host = TcpServer::launch(0, Router::new()).unwrap();
    let dual_endpoint = host.service_uri("Dual");
    let p2ps = Port {
        name: "DualP2psPort".into(),
        transport: TransportKind::P2ps,
        location: "p2ps://00000000000000aa/Dual".into(),
    };
    let http = Port::hosted("Dual", TransportKind::Http, dual_endpoint.clone());
    let dual = WsdlDocument::new(renamed(&calc, "Dual"), vec![http, p2ps]).to_xml();
    let serve_dual = move |_: &Request| Response::ok("text/xml; charset=utf-8", dual.clone());
    host.router().deploy("Dual", Arc::new(serve_dual));
    save_record(&registry, "Dual", &dual_endpoint, digest);

    let consumer = Consumer::new(binding());
    for name in ["Alias", "Liar", "Dual", "Alias"] {
        let (located, fetched) = consumer.locate(name);
        assert_eq!(fetched, 1, "{name} was served from the cache");
        assert_eq!(located.wsdl, served(&located.endpoint), "{name}");
    }
    provider.server().publish("Calc").unwrap();
    let (_, fetched) = consumer.locate("Calc");
    assert_eq!(fetched, 1, "nothing was learnt from the records above");
    let (_, fetched) = consumer.locate("Calc");
    assert_eq!(fetched, 0, "the truthful record was");
    host.shutdown();
}
