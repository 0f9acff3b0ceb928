//! `lifecycle`: the hosting half and the registry write path. One op
//! is a full cycle — deploy + publish a fresh service, locate it, call
//! it once, undeploy it — against a `wsp_uddi::RegistryServer` over
//! HTTP that already holds 200 unrelated services.

use super::{
    echo_descriptor, echo_handler, elapsed_ns, span, verify_echo, Fixture, OpClient, Outcome,
    ECHO_OPERATION,
};
use crate::gen::LifecycleGen;
use crate::trace;
use std::time::Instant;
use wsp_core::bindings::HttpUddiBinding;
use wsp_core::{EventBus, Peer, ServiceQuery};
use wsp_uddi::{BindingTemplate, BusinessService, RegistryServer};
use wsp_wsdl::Value;

/// Services in the registry before the first op and after the last.
pub const PRELOADED: usize = 200;

pub struct LifecycleFixture {
    registry: RegistryServer,
}

impl LifecycleFixture {
    pub fn launch() -> Result<LifecycleFixture, String> {
        let registry = RegistryServer::launch(0).map_err(|e| format!("launch registry: {e}"))?;
        for i in 0..PRELOADED {
            registry.registry.save_service(
                BusinessService::new("", "uddi:wspeer:bench", format!("Resident-{i:03}"))
                    .with_binding(BindingTemplate::new(
                        "",
                        format!("http://10.9.0.{}:8080/Resident-{i:03}", i % 250),
                    )),
            );
        }
        Ok(LifecycleFixture { registry })
    }
}

impl Fixture for LifecycleFixture {
    fn client(&self, client: usize, seed: u64) -> Result<Box<dyn OpClient>, String> {
        let uri = self.registry.uri();
        Ok(Box::new(LifecycleClient {
            gen: LifecycleGen::new(seed, client),
            provider: Peer::with_binding(&HttpUddiBinding::with_registry_uri(
                &uri,
                EventBus::new(),
            )),
            consumer: Peer::with_binding(&HttpUddiBinding::with_registry_uri(
                &uri,
                EventBus::new(),
            )),
        }))
    }

    fn final_check(&self) -> Result<(), String> {
        match self.registry.registry.service_count() {
            PRELOADED => Ok(()),
            n => Err(format!(
                "registry holds {n} services after the run, expected {PRELOADED}"
            )),
        }
    }

    fn shutdown(self: Box<Self>) {
        self.registry.shutdown();
    }
}

struct LifecycleClient {
    gen: LifecycleGen,
    provider: Peer,
    consumer: Peer,
}

impl LifecycleClient {
    fn cycle(&self, op: u64, service: &str, payload: &Value, root: u64) -> Result<Value, String> {
        let deployed = {
            let _s = trace::begin(span::DEPLOY_PUBLISH, op, root);
            self.provider
                .server()
                .deploy_and_publish(echo_descriptor(service), echo_handler())
                .map_err(|e| format!("deploy_and_publish {service}: {e}"))?
        };
        let located = {
            let _s = trace::begin(span::LOCATE, op, root);
            self.consumer
                .client()
                .locate_one(&ServiceQuery::by_name(service))
                .map_err(|e| format!("locate {service}: {e}"))?
        };
        if Some(located.endpoint.as_str()) != deployed.primary_endpoint() {
            return Err(format!(
                "located {} but deployed {:?}",
                located.endpoint,
                deployed.primary_endpoint()
            ));
        }
        let reply = {
            let _s = trace::begin(span::LIFECYCLE_INVOKE, op, root);
            self.consumer
                .client()
                .invoke(&located, ECHO_OPERATION, std::slice::from_ref(payload))
                .map_err(|e| format!("invoke {service}: {e}"))?
        };
        let _s = trace::begin(span::UNDEPLOY, op, root);
        if !self.provider.server().undeploy(service) {
            return Err(format!("undeploy {service}: was not deployed"));
        }
        Ok(reply)
    }
}

impl OpClient for LifecycleClient {
    fn op(&mut self) -> Outcome {
        let input = self.gen.next_input();
        let payload = Value::string(input.payload);
        let started = Instant::now();
        let result = {
            let root = trace::begin(trace::ROOT, input.op, 0);
            self.cycle(input.op, &input.service, &payload, root.id())
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
