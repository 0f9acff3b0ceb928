//! The seven workloads. Each is a [`Fixture`] (servers and published
//! services, all in this process, default configs, loopback sockets)
//! plus one [`OpClient`] per closed-loop client thread.

pub mod discovery;
pub mod gateway;
pub mod invoke;
pub mod lifecycle;

use crate::gen::{find_op_tag, TAG_LEN};
use crate::trace;
use std::sync::Arc;
use wsp_wsdl::{OperationDef, ServiceDescriptor, ServiceHandler, Value, XsdType};

/// Span names shared by the clients and the report.
pub mod span {
    pub const ENCODE: &str = "client.encode";
    pub const WIRE: &str = "client.wire";
    pub const DECODE: &str = "client.decode";
    /// `Client::invoke` as one span, where the bench cannot step
    /// through it from outside (P2PS).
    pub const INVOKE: &str = "client.invoke";
    pub const HANDLER: &str = "handler";
    pub const REGISTRY_HANDLER: &str = "registry.handler";
    pub const DEPLOY_PUBLISH: &str = "lifecycle.deploy_publish";
    pub const LOCATE: &str = "lifecycle.locate";
    pub const LIFECYCLE_INVOKE: &str = "lifecycle.invoke";
    pub const UNDEPLOY: &str = "lifecycle.undeploy";
    pub const DISCOVERY_LOCATE: &str = "discovery.locate";
    pub const DISCOVERY_PUBLISH: &str = "discovery.publish";
}

/// What one operation came to.
#[derive(Debug)]
pub enum Outcome {
    /// The reply arrived and was verified.
    Ok {
        latency_ns: u64,
        /// The gateway marked the reply `X-WSP-Cache: hit`.
        cache_hit: bool,
    },
    /// An error, a refusal, a timeout or a wrong reply.
    Failed(String),
}

/// One closed-loop client. `op` generates the next input from the
/// client's seeded generator, times the call(s) into the program, and
/// verifies the reply outside the timed section.
pub trait OpClient: Send {
    fn op(&mut self) -> Outcome;
}

pub trait Fixture {
    /// The client for thread `client` (0 or 1). May perform discovery
    /// (locate + WSDL fetch) — that is part of set-up.
    fn client(&self, client: usize, seed: u64) -> Result<Box<dyn OpClient>, String>;

    /// A check that only holds once every client has stopped.
    fn final_check(&self) -> Result<(), String> {
        Ok(())
    }

    /// Stop every server and thread the fixture started.
    fn shutdown(self: Box<Self>);
}

/// Bring `workload`'s fixture up.
pub fn launch(workload: &str) -> Result<Box<dyn Fixture>, String> {
    Ok(match workload {
        "invoke_small" => Box::new(invoke::HttpEcho::launch(crate::gen::PayloadSize::Small)?),
        "invoke_large" => Box::new(invoke::HttpEcho::launch(crate::gen::PayloadSize::Large)?),
        "p2ps_invoke" => Box::new(invoke::P2psEcho::launch()?),
        "gateway_miss" => Box::new(gateway::GatewayFixture::launch(false)?),
        "gateway_hit" => Box::new(gateway::GatewayFixture::launch(true)?),
        "lifecycle" => Box::new(lifecycle::LifecycleFixture::launch()?),
        "discovery_mix" => Box::new(discovery::DiscoveryFixture::launch()?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// The echo service every invocation workload hosts
// ---------------------------------------------------------------------------

pub const ECHO_SERVICE: &str = "EchoBench";
pub const ECHO_OPERATION: &str = "echo";

pub fn echo_descriptor(name: &str) -> ServiceDescriptor {
    ServiceDescriptor::new(name, "urn:bench:echo").operation(
        OperationDef::new(ECHO_OPERATION)
            .input("data", XsdType::String)
            .returns(XsdType::String),
    )
}

/// The bench-owned service handler: replies with its argument. While
/// tracing, it records a `handler` span under the op id the payload
/// starts with.
pub fn echo_handler() -> Arc<dyn ServiceHandler> {
    Arc::new(|_op: &str, args: &[Value]| {
        let _span = trace::is_on().then(|| {
            let head = args[0]
                .as_str()
                .map_or(&[][..], |s| &s.as_bytes()[..TAG_LEN.min(s.len())]);
            trace::begin(span::HANDLER, find_op_tag(head), 0)
        });
        Ok(args[0].clone())
    })
}

/// Check an echo reply against what was sent.
pub fn verify_echo(sent: &str, reply: &Value) -> Result<(), String> {
    match reply.as_str() {
        Some(text) if text == sent => Ok(()),
        Some(text) => Err(format!(
            "wrong echo: sent {} bytes (fnv {:016x}), got {} bytes (fnv {:016x})",
            sent.len(),
            crate::gen::fnv1a(sent.as_bytes()),
            text.len(),
            crate::gen::fnv1a(text.as_bytes())
        )),
        None => Err(format!("echo reply is not a string: {reply:?}")),
    }
}

pub(crate) fn elapsed_ns(since: std::time::Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}
