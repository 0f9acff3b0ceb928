//! # wsp-uddi
//!
//! A UDDI-style registry: the discovery substrate of WSPeer's standard
//! HTTP implementation (paper Section IV.A). Provides the v2-flavoured
//! data model (business entities, services, binding templates, tModels),
//! a thread-safe, name-indexed [`Registry`] store, the registry's
//! requests and answers as values ([`wire`], which also streams and
//! reads their SOAP envelopes), the inquiry/publish [`api`] (two-step
//! `find_service` + `get_serviceDetail` and the single-exchange
//! `find_serviceDetail`), a [`UddiClient`] over pluggable transports,
//! and hosting glue to run a registry on the lightweight HTTP server —
//! real TCP or the simulator.
//!
//! The registry is deliberately *centralised*: it is the client/server
//! discovery mechanism whose bottleneck and single-point-of-failure
//! behaviour experiments E1 and E3 measure against P2PS discovery.
//!
//! ```
//! use wsp_uddi::{Registry, UddiClient, ServiceQuery, BusinessService, BindingTemplate};
//!
//! let registry = Registry::new();
//! let client = UddiClient::direct(registry);
//! client.save_service(
//!     &BusinessService::new("", "biz", "EchoService")
//!         .with_binding(BindingTemplate::new("", "http://host/Echo")),
//! ).unwrap();
//! let hits = client.locate(&ServiceQuery::by_name("Echo%")).unwrap();
//! assert_eq!(hits[0].bindings[0].access_point, "http://host/Echo");
//! ```

pub mod api;
pub mod client;
pub mod model;
pub mod query;
pub mod registry;
pub mod server;
pub mod wire;

pub use api::UddiApi;
pub use client::{direct_transport, http_transport, UddiClient, UddiError, UddiTransport};
pub use model::{
    BindingTemplate, BusinessEntity, BusinessService, KeyedReference, TModel, UDDI_NS,
};
pub use query::{fold, wildcard_match, ServiceQuery, FIND_SERVICE, FIND_SERVICE_DETAIL};
pub use registry::Registry;
pub use server::{registry_handler, serve_http, RegistryServer, REGISTRY_PATH};
pub use wire::{DataVersions, ServiceInfo, UddiOp, UddiRequest, UddiResponse, REGISTRY_NS};
