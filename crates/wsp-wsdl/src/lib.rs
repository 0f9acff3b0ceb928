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
//! use wsp_soap::MessageHeaders;
//! use wsp_wsdl::{proxy, MessageEngine, ServiceDescriptor, Value};
//!
//! let echo = ServiceDescriptor::echo();
//! let engine = MessageEngine::new(
//!     echo.clone(),
//!     Arc::new(|_op: &str, args: &[Value]| Ok(args[0].clone())),
//! );
//! // The client writes the request's bytes...
//! let headers = MessageHeaders::request("http://host/Echo", "http://host/Echo#echoString");
//! let mut request = Vec::new();
//! proxy::write_request(&echo, &[], &headers, "echoString", &[Value::string("hi")], &mut request)
//!     .unwrap();
//! // ...the engine reads them and writes the response's...
//! let request = engine.read_request(std::str::from_utf8(&request).unwrap(), &mut |_| {}).unwrap();
//! let mut response = Vec::new();
//! assert_eq!(engine.answer(&request, None, &mut response), Some(false));
//! // ...and the client reads the result.
//! let response = std::str::from_utf8(&response).unwrap();
//! assert_eq!(proxy::read_response(&echo, "echoString", response), Ok(Value::string("hi")));
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
pub use value::Value;
pub use xsd::{ComplexType, FieldDef, Schema, XsdType, XSD_NS};
