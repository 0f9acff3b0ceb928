//! # wsp-core — WSPeer
//!
//! An interface to Web service hosting and invocation, reproducing the
//! system of Harrison & Taylor, *WSPeer — An Interface to Web Service
//! Hosting and Invocation* (IPDPS 2005). WSPeer sits between an
//! application and the network, "acting as both buffer and interpreter"
//! (Figure 1): the application deploys, publishes, locates and invokes
//! services against one API while pluggable bindings speak to vastly
//! different substrates.
//!
//! * The **interface tree** (Figure 2): a [`Peer`] owns a [`Client`]
//!   (with pluggable [`ServiceLocator`] and [`Invoker`] components) and
//!   a [`Server`] (with pluggable [`ServiceDeployer`] and
//!   [`ServicePublisher`]). Events from every node propagate to
//!   listeners at the root via the five-method [`PeerMessageListener`].
//! * The **standard binding** ([`bindings::HttpUddiBinding`], Figure 3):
//!   SOAP over HTTP(G), UDDI publish/find, WSDL at `endpoint?wsdl`, and
//!   a lightweight container-less host launched on first deployment.
//! * The **P2PS binding** ([`bindings::P2psBinding`], Figure 4): XML
//!   advertisements, rendezvous discovery, and SOAP over unidirectional
//!   pipes with WS-Addressing `ReplyTo` return pipes (Figures 5–6).
//! * **Stateful services** ([`StatefulService`]): any in-memory object
//!   becomes a standards-compliant service; each operation may map to a
//!   different object.
//! * **Workflows** ([`Workflow`]): Triana-style chaining of discovered
//!   services.
//! * The **dispatch core** ([`Dispatcher`]): every peer owns one
//!   bounded-queue worker pool plus a token → pending-call correlation
//!   table, shared by its client, server and bindings. Sync and async
//!   invocation are a single pipeline — [`Client::invoke`] runs the job
//!   `invoke_async` queues, on the calling thread
//!   ([`Dispatcher::run_with_token`]).
//!
//! ## Asynchrony: `CallHandle` and event delivery
//!
//! `invoke_async`/`locate_async` return a [`CallHandle`] whose
//! [`token`](CallHandle::token) matches the `token` field of the
//! [`ClientMessageEvent`]/[`DiscoveryMessageEvent`] fired on
//! completion, so listener callbacks correlate with in-flight calls.
//! Handle semantics:
//!
//! * [`wait`](CallHandle::wait) blocks for the result; while blocked
//!   the thread *helps* — it runs queued jobs inline, so a pool worker
//!   waiting on a nested asynchronous call cannot deadlock the pool.
//! * [`wait_timeout`](CallHandle::wait_timeout) returns `Err(handle)`
//!   on timeout so the caller can keep waiting or
//!   [`cancel`](CallHandle::cancel); a cancelled call drops any late
//!   completion. [`try_poll`](CallHandle::try_poll) never blocks.
//! * A panicking job poisons only its own handle (the waiter re-panics
//!   with the job's message); worker threads always survive.
//!
//! [`EventBus`] delivery never holds locks while running listeners:
//! the listener list is snapshotted first, so re-entrant listeners may
//! add listeners or fire further events, and each callback runs under
//! `catch_unwind` (panics are counted via
//! [`EventBus::listener_panics`], not propagated). Callbacks run on
//! whichever thread fires the event — for an asynchronous call a pool
//! worker — before the job that fired it completes, so
//! [`Dispatcher::flush`], the barrier for job completion, is also the
//! barrier for their events.
//!
//! ```no_run
//! use std::sync::Arc;
//! use wsp_core::{bindings::HttpUddiBinding, EventBus, Peer, ServiceQuery};
//! use wsp_wsdl::{ServiceDescriptor, Value};
//!
//! let binding = HttpUddiBinding::with_local_registry(wsp_uddi::Registry::new(), EventBus::new());
//! let peer = Peer::with_binding(&binding);
//! peer.server().deploy_and_publish(
//!     ServiceDescriptor::echo(),
//!     Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
//! ).unwrap();
//! let svc = peer.client().locate_one(&ServiceQuery::by_name("Echo")).unwrap();
//! let out = peer.client().invoke(&svc, "echoString", &[Value::string("hi")]).unwrap();
//! assert_eq!(out, Value::string("hi"));
//! ```

pub mod bindings;
pub mod client;
pub mod components;
pub mod dispatch;
pub mod endpoint;
pub mod error;
pub mod events;
pub mod machines;
pub mod overload;
pub mod peer;
pub mod query;
pub mod resilience;
pub mod server;
pub mod state;
pub mod workflow;

pub use client::Client;
pub use components::{Binding, Invoker, ServiceDeployer, ServiceLocator, ServicePublisher};
pub use dispatch::{CallHandle, Completer, Dispatcher, DispatcherConfig, DispatcherStats};
pub use endpoint::{BindingKind, DeployedService, LocatedService};
pub use error::WspError;
pub use events::{
    ClientMessageEvent, CollectingListener, DeploymentMessageEvent, DiscoveryMessageEvent,
    EventBus, LifecycleMessageEvent, LifecyclePhase, PeerMessageListener, PublishMessageEvent,
    ResilienceAction, ResilienceMessageEvent, ServerMessageEvent, ServerPhase,
};
pub use health::{
    Admission, BreakerConfig, BreakerPermit, BreakerState, CircuitBreaker, EndpointHealth,
};
pub use overload::{
    DeadlineScope, KeyedAdmissionController, KeyedAdmissionPermit, KeyedLoadShedPolicy,
};
pub use peer::Peer;
pub use query::{QueryExpr, ServiceQuery};
pub use resilience::{ResiliencePolicy, RetryClass};
pub use server::{HostedService, Hosting, Server};
pub use state::StatefulService;
pub use telemetry::{
    CorrelationScope, Counter, Histogram, HistogramSnapshot, Telemetry, TelemetrySnapshot,
    TraceEvent,
};
pub use workflow::{Stage, Workflow, WorkflowRun};
pub use wsp_http::health;
pub use wsp_telemetry as telemetry;
