//! Figure 3 over a real network registry: deploy / publish / locate /
//! invoke with every piece on the wire, plus fault paths, dynamic
//! undeploy and the HTTPG authenticated transport.

use std::sync::Arc;
use wsp_core::bindings::{HttpUddiBinding, HttpUddiConfig};
use wsp_core::{EventBus, Peer, ResiliencePolicy, ServiceQuery, WspError};
use wsp_http::HttpgCredential;
use wsp_integration_tests::{calc_descriptor, calc_handler};
use wsp_uddi::{RegistryServer, UddiClient};
use wsp_wsdl::{OperationDef, ServiceDescriptor, Value, XsdType};

fn networked_pair() -> (RegistryServer, Peer, Peer) {
    let registry = RegistryServer::launch(0).unwrap();
    let provider = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    let consumer = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    (registry, provider, consumer)
}

#[test]
fn full_lifecycle_over_network_registry() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();

    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert!(service.endpoint.starts_with("http://127.0.0.1:"));
    // The WSDL fetched over the wire carries the full contract.
    assert_eq!(service.wsdl.descriptor.operations.len(), 4);

    let sum = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(40.0), Value::Double(2.0)])
        .unwrap();
    assert_eq!(sum, Value::Double(42.0));
    registry.shutdown();
}

#[test]
fn service_fault_crosses_the_wire() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    let err = consumer.client().invoke(&service, "fail", &[]).unwrap_err();
    match err {
        WspError::Fault(fault) => assert_eq!(fault.reason, "deliberate failure"),
        other => panic!("expected fault, got {other:?}"),
    }
    registry.shutdown();
}

#[test]
fn one_way_operation_returns_immediately() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    let out = consumer
        .client()
        .invoke(&service, "log", &[Value::string("note")])
        .unwrap();
    assert_eq!(out, Value::Null);
    registry.shutdown();
}

#[test]
fn undeploy_yields_404_and_unpublish_removes_record() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();

    assert!(provider.server().undeploy("Calc"));
    // Registry record is gone: fresh discovery finds nothing.
    assert!(consumer
        .client()
        .locate(&ServiceQuery::by_name("Calc"))
        .unwrap()
        .is_empty());
    // And the old endpoint no longer answers.
    let err = consumer
        .client()
        .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)])
        .unwrap_err();
    assert!(matches!(err, WspError::Invoke(_)), "{err:?}");
    registry.shutdown();
}

#[test]
fn redeploy_at_runtime_updates_behaviour() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let service = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert_eq!(
        consumer
            .client()
            .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)])
            .unwrap(),
        Value::Double(2.0)
    );
    // Hot-swap the implementation (no restart — the container-less
    // host just replaces the route).
    provider
        .server()
        .deploy(
            calc_descriptor(),
            Arc::new(|_op: &str, _args: &[Value]| Ok(Value::Double(-1.0))),
        )
        .unwrap();
    assert_eq!(
        consumer
            .client()
            .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)])
            .unwrap(),
        Value::Double(-1.0)
    );
    registry.shutdown();
}

#[test]
fn discovery_by_property_category() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let hits = consumer
        .client()
        .locate(&ServiceQuery::any().with_property("suite", "integration"))
        .unwrap();
    assert_eq!(hits.len(), 1);
    let misses = consumer
        .client()
        .locate(&ServiceQuery::any().with_property("suite", "production"))
        .unwrap();
    assert!(misses.is_empty());
    registry.shutdown();
}

#[test]
fn httpg_transport_requires_credentials() {
    let registry = RegistryServer::launch(0).unwrap();
    let credential = HttpgCredential::new("grid-secret", "/O=Grid/CN=wspeer-test");

    let provider_binding = HttpUddiBinding::new(
        UddiClient::http(registry.uri()),
        EventBus::new(),
        HttpUddiConfig {
            httpg: Some(credential.clone()),
            ..HttpUddiConfig::default()
        },
    );
    let provider = Peer::with_binding(&provider_binding);
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let deployed = provider.server().deployed_service("Calc").unwrap();
    assert!(deployed.primary_endpoint().unwrap().starts_with("httpg://"));

    // A consumer with the right credential succeeds.
    let good = Peer::with_binding(&HttpUddiBinding::new(
        UddiClient::http(registry.uri()),
        EventBus::new(),
        HttpUddiConfig {
            httpg: Some(credential),
            ..HttpUddiConfig::default()
        },
    ));
    let service = good
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    let sum = good
        .client()
        .invoke(&service, "add", &[Value::Double(2.0), Value::Double(3.0)])
        .unwrap();
    assert_eq!(sum, Value::Double(5.0));

    // A consumer with the wrong credential is rejected at the transport.
    let bad_binding = HttpUddiBinding::new(
        UddiClient::http(registry.uri()),
        EventBus::new(),
        HttpUddiConfig {
            httpg: Some(HttpgCredential::new("wrong-secret", "/CN=mallory")),
            ..HttpUddiConfig::default()
        },
    );
    let bad = Peer::with_binding(&bad_binding);
    // It learns the interface from a plain-HTTP provider of it: a second
    // locate there is built from the record, no fetch.
    let plain = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    (plain.server())
        .deploy_and_publish(renamed(calc_descriptor(), "PlainCalc"), calc_handler())
        .unwrap();
    let calls = || bad_binding.pool_stats().hits + bad_binding.pool_stats().misses;
    for fetches in [1, 0] {
        let before = calls();
        let plain = bad.client().locate(&ServiceQuery::by_name("PlainCalc"));
        assert_eq!(plain.unwrap().len(), 1);
        assert_eq!(calls() - before, fetches);
    }
    // Discovery still fails: an `httpg://` record is never built from
    // what the consumer holds — its WSDL fetch is the guarded step.
    assert!(bad
        .client()
        .locate(&ServiceQuery::by_name("Calc"))
        .unwrap()
        .is_empty());
    // Direct invocation with a stale LocatedService fails as well.
    let err = bad
        .client()
        .invoke(&service, "add", &[Value::Double(1.0), Value::Double(1.0)]);
    assert!(err.is_err());
    registry.shutdown();
}

#[test]
fn two_providers_same_name_both_located() {
    let registry = RegistryServer::launch(0).unwrap();
    for _ in 0..2 {
        let provider = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
            &registry.uri(),
            EventBus::new(),
        ));
        provider
            .server()
            .deploy_and_publish(calc_descriptor(), calc_handler())
            .unwrap();
        std::mem::forget(provider); // keep hosts alive for the assertion
    }
    let consumer = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
        &registry.uri(),
        EventBus::new(),
    ));
    let hits = consumer
        .client()
        .locate(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert_eq!(hits.len(), 2);
    let endpoints: std::collections::HashSet<_> = hits.iter().map(|h| h.endpoint.clone()).collect();
    assert_eq!(endpoints.len(), 2, "distinct providers");
    registry.shutdown();
}

fn renamed(descriptor: ServiceDescriptor, name: &str) -> ServiceDescriptor {
    ServiceDescriptor {
        name: name.to_owned(),
        ..descriptor
    }
}

/// A second publish of a deployed name replaces its record instead of
/// adding one, and undeploy leaves the registry as it found it — no
/// record, no tModel.
#[test]
fn republish_replaces_the_record_and_undeploy_leaves_the_registry_as_it_was() {
    let (registry, provider, _consumer) = networked_pair();
    let store = &registry.registry;
    let baseline = (store.service_count(), store.tmodel_count());
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    let first = store.service_count();
    let key = provider.server().publish("Calc").unwrap();
    assert_eq!(provider.server().publish("Calc").unwrap(), key);
    assert_eq!(store.service_count(), first);
    assert_eq!(
        (store.service_count(), store.tmodel_count()),
        (baseline.0 + 1, baseline.1 + 1)
    );
    assert!(provider.server().undeploy("Calc"));
    assert_eq!((store.service_count(), store.tmodel_count()), baseline);
    registry.shutdown();
}

/// Redeploying a published name with another interface republishes it:
/// a consumer that built `Calc` from the interface it held sees the new
/// one on its next locate, and the registry still holds one record and
/// one tModel for it.
#[test]
fn a_changed_interface_is_republished_and_located_afresh() {
    let (registry, provider, consumer) = networked_pair();
    provider
        .server()
        .deploy_and_publish(calc_descriptor(), calc_handler())
        .unwrap();
    for _ in 0..2 {
        let located = consumer.client().locate_one(&ServiceQuery::by_name("Calc"));
        assert_eq!(located.unwrap().wsdl.descriptor, calc_descriptor());
    }
    let changed = calc_descriptor().operation(
        OperationDef::new("negate")
            .input("x", XsdType::Double)
            .returns(XsdType::Double),
    );
    let negate = |_: &str, args: &[Value]| Ok(Value::Double(-args[0].as_double().unwrap()));
    provider
        .server()
        .deploy(changed.clone(), Arc::new(negate))
        .unwrap();
    let located = consumer
        .client()
        .locate_one(&ServiceQuery::by_name("Calc"))
        .unwrap();
    assert_eq!(located.wsdl.descriptor, changed);
    let negated = consumer
        .client()
        .invoke(&located, "negate", &[Value::Double(2.0)]);
    assert_eq!(negated.unwrap(), Value::Double(-2.0));
    let store = &registry.registry;
    assert_eq!((store.service_count(), store.tmodel_count()), (1, 1));
    registry.shutdown();
}

/// Two providers of one interface under one name, and one host shut
/// down with its record left behind: a consumer that holds the interface
/// contacts neither at locate, so the dead one is located too. One
/// attempt (the client's policy out of the box) fails against it; a
/// client whose policy retries fails over to the live one.
#[test]
fn a_dead_provider_is_located_and_invoke_fails_over_past_it() {
    let registry = RegistryServer::launch(0).unwrap();
    let provider = || {
        let provider = Peer::with_binding(&HttpUddiBinding::with_registry_uri(
            &registry.uri(),
            EventBus::new(),
        ));
        let deployed = provider
            .server()
            .deploy_and_publish(calc_descriptor(), calc_handler())
            .unwrap();
        (provider, deployed.endpoints[0].clone())
    };
    let ((doomed, dead), (_survivor, live)) = (provider(), provider());
    let binding = HttpUddiBinding::with_registry_uri(&registry.uri(), EventBus::new());
    let consumer = Peer::with_binding(&binding);
    let query = ServiceQuery::by_name("Calc");
    assert_eq!(consumer.client().locate(&query).unwrap().len(), 2);
    drop(doomed); // its host goes down; `undeploy` would have unpublished
    let calls = || binding.pool_stats().hits + binding.pool_stats().misses;
    let before = calls();
    let located = consumer.client().locate(&query).unwrap();
    assert_eq!(calls(), before, "neither provider was contacted");
    let endpoints: Vec<&str> = located.iter().map(|s| s.endpoint.as_str()).collect();
    assert!(endpoints.contains(&dead.as_str()) && endpoints.contains(&live.as_str()));
    let stale = located.iter().find(|s| s.endpoint == dead).unwrap();
    let args = [Value::Double(2.0), Value::Double(3.0)];
    let once = consumer.client().invoke(stale, "add", &args);
    assert!(matches!(once, Err(WspError::Transport(_))), "{once:?}");
    consumer
        .client()
        .set_resilience_policy(ResiliencePolicy::retrying(2));
    let sum = consumer.client().invoke(stale, "add", &args);
    assert_eq!(sum.unwrap(), Value::Double(5.0));
    registry.shutdown();
}
