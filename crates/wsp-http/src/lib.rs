//! # wsp-http
//!
//! HTTP substrate for WSPeer's standard ("HTTP/UDDI") implementation:
//!
//! * a byte-exact HTTP/1.1 [`codec`];
//! * the container-less lightweight host — a [`Router`] of dynamically
//!   deployed services behind either a real [`server::TcpServer`] or a
//!   simulated [`sim::HttpSimServer`] (the same router serves both).
//!   `TcpServer` has one transport core, the epoll [`reactor`], whose
//!   every decision is a pure machine ([`conn`], [`drain`]) that
//!   `wsp-check` explores;
//! * the blocking client: a keep-alive [`pool::ConnectionPool`], with
//!   [`http_call`] as connection-per-call through the same code;
//! * [`httpg`], the simulated Globus-style authenticated transport.
//!
//! The paper's host launches its HTTP server only when the first service
//! is deployed, lists services at `/`, and hands every request to the
//! application before the messaging engine sees it; `Router` +
//! `TcpServer` implement exactly that contract.

pub mod codec;
pub mod conn;
pub mod drain;
pub mod httpg;
pub mod message;
pub mod pool;
pub mod reactor;
pub mod router;
pub mod server;
pub mod sim;
/// Test-only: the loopback suites of [`server`] and [`pool`].
mod tcp;
pub mod uri;

pub use codec::{
    encode_request, encode_response, frame_len, parse_request, parse_response, HeadScan, HttpError,
};
pub use conn::{ConnEffect, ConnEvent, ConnMachine, ConnState, Phase, TimerKind};
pub use drain::{DrainEffect, DrainEvent, DrainMachine, DrainState, Lifecycle};
pub use httpg::{guard_router, guarded, HttpgCredential, HttpgError};
pub use message::{Headers, Method, Request, Response};
pub use pool::{http_call, http_call_uri, ConnectionPool, DEFAULT_CLIENT_TIMEOUT};
pub use reactor::{
    Admit, ConnProtocol, Io, Job, JobResult, Listener, Reactor, ReactorConfig, ServerHooks,
};
pub use router::{HttpHandler, Interceptor, Router};
pub use server::{ServerConfig, TcpServer};
pub use sim::{
    HttpSimServer, ResilientSimClient, RetrySchedule, SimCallOutcome, SimHttpClient,
    CORRELATION_HEADER, RETRY_RESEND_TAG, RETRY_TIMEOUT_TAG,
};
pub use uri::{HttpUri, UriError};
