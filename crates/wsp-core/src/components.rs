//! The pluggable component traits of the interface tree (Figure 2):
//! `ServiceLocator` and `Invocation` under the client side,
//! `ServiceDeployer` and `ServicePublisher` under the server side, and
//! the [`Binding`] bundle that plugs a whole substrate in at once.
//!
//! "By plugging in different components, WSPeer can communicate with
//! different entities without the application changing."

use crate::endpoint::{DeployedService, LocatedService};
use crate::error::WspError;
use crate::query::ServiceQuery;
use crate::server::{HostedService, Hosting};
use std::sync::Arc;
use wsp_wsdl::{Port, Value};

/// Client-side discovery component.
pub trait ServiceLocator: Send + Sync {
    /// Find services matching `query`. Blocking with an internal
    /// timeout; the `Client` wraps this for asynchronous use.
    fn locate(&self, query: &ServiceQuery) -> Result<Vec<LocatedService>, WspError>;

    /// The first service `locate(query)` would return, or none. A
    /// locator that gathers answers over time (P2PS) overrides this to
    /// return as soon as it has one; the default asks `locate`.
    fn locate_first(&self, query: &ServiceQuery) -> Result<Option<LocatedService>, WspError> {
        Ok(self.locate(query)?.into_iter().next())
    }

    /// Short label for diagnostics ("uddi", "p2ps", …).
    fn kind(&self) -> &'static str;
}

/// Client-side invocation component.
pub trait Invoker: Send + Sync {
    /// Invoke `operation` on `service` with `args`, waiting for the
    /// response (one-way operations return `Value::Null` immediately).
    fn invoke(
        &self,
        service: &LocatedService,
        operation: &str,
        args: &[Value],
    ) -> Result<Value, WspError>;

    /// Can this invoker reach `endpoint`? (Scheme-based dispatch.)
    fn handles(&self, endpoint: &str) -> bool;

    fn kind(&self) -> &'static str;
}

/// Server-side deployment component: "creating an addressable
/// endpoint". Taking the code source and generating its description is
/// the [`crate::Server`]'s half, the same on every substrate; a deployer
/// is what differs — where the service can be reached, and how a request
/// on that wire becomes [`Hosting::admit`] + [`Hosting::serve`] and the
/// outcome a reply.
pub trait ServiceDeployer: Send + Sync {
    /// Name the WSDL port `service` gets on this substrate, bringing up
    /// whatever its address depends on (the HTTP host launches here, on
    /// the first deploy).
    fn port(&self, service: &str) -> Result<Port, WspError>;

    /// Start carrying requests for `service` at the port named for it.
    /// Opening a name again re-points the endpoint at the new
    /// deployment.
    fn open(&self, hosting: &Arc<Hosting>, service: &Arc<HostedService>);

    /// Stop carrying requests for `service`.
    fn close(&self, service: &str);

    fn kind(&self) -> &'static str;
}

/// Server-side publication component: "making the service endpoint
/// and/or its interface description available to the network".
pub trait ServicePublisher: Send + Sync {
    /// Publish a deployed service; returns a location token (registry
    /// key, advert URI, …).
    fn publish(&self, service: &DeployedService) -> Result<String, WspError>;

    /// Withdraw a publication. True if it was published.
    fn unpublish(&self, service: &str) -> bool;

    fn kind(&self) -> &'static str;
}

/// A full substrate plugged in as one unit. The `Peer` wires a
/// binding's four components into its tree; the application can still
/// replace any single component afterwards ("users can insert
/// variations into the tree at any level").
pub trait Binding: Send + Sync {
    fn kind(&self) -> &'static str;
    fn locator(&self) -> Arc<dyn ServiceLocator>;
    fn invoker(&self) -> Arc<dyn Invoker>;
    fn deployer(&self) -> Arc<dyn ServiceDeployer>;
    fn publisher(&self) -> Arc<dyn ServicePublisher>;

    /// Called when the binding is plugged into a `Peer`, handing it the
    /// peer's [`Hosting`] core — and through it the shared
    /// [`crate::dispatch::Dispatcher`]: bindings that run background
    /// work (discovery fan-out, request serving) submit it there instead
    /// of spawning threads of their own. Default: no-op.
    fn on_attach(&self, _hosting: &Arc<Hosting>) {}
}
