//! # wsp-wsdl
//!
//! Service description for the WSPeer stack: a WSDL 1.1 document model
//! with generation and parsing, a small XSD subset, the dynamic `Value`
//! model used at invocation time, the server-side [`MessageEngine`]
//! (our Apache Axis substitute) and the client-side [`ServiceProxy`]
//! (the stub-generation substitute) — see `DESIGN.md` for the
//! substitution rationale.
//!
//! The deployment pipeline is: the application describes itself with a
//! [`ServiceDescriptor`] ("the code source"), WSPeer turns it into a
//! [`WsdlDocument`] with concrete endpoint [`Port`]s, and pairs it with a
//! [`ServiceHandler`] inside a [`MessageEngine`]. Consumers parse the
//! WSDL back and drive the service through a [`ServiceProxy`].
//!
//! ```
//! use std::sync::Arc;
//! use wsp_wsdl::{MessageEngine, ServiceDescriptor, ServiceProxy, Value};
//!
//! let engine = MessageEngine::new(
//!     ServiceDescriptor::echo(),
//!     Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
//! );
//! let proxy = ServiceProxy::new(ServiceDescriptor::echo(), "http://host/Echo");
//! let request = proxy.encode_request("echoString", &[Value::string("hi")]).unwrap();
//! let response = engine.process(&request).unwrap();
//! assert_eq!(proxy.decode_response("echoString", &response).unwrap(),
//!            Value::string("hi"));
//! ```

pub mod base64;
pub mod engine;
pub mod model;
pub mod proxy;
pub mod service;
pub mod value;
pub mod xsd;

pub use engine::{MessageEngine, TypedRequest};
pub use model::{Port, TransportKind, WsdlDocument, WsdlError, WSDL_NS, WSDL_SOAP_NS};
pub use proxy::{ProxyError, ServiceProxy};
pub use service::{OperationDef, OperationRouter, Param, ServiceDescriptor, ServiceHandler};
pub use value::{decode_typed, Value, ValueError};
pub use xsd::{ComplexType, FieldDef, Schema, XsdType, XSD_NS};
