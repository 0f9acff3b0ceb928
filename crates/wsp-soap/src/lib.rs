//! # wsp-soap
//!
//! The SOAP message layer of the WSPeer stack: envelope construction and
//! parsing, fault modelling, and the WS-Addressing headers that Section
//! IV.B of the paper uses to bridge P2PS pipes and Web service standards.
//!
//! The paper delegates this layer to Apache Axis; per `DESIGN.md` we
//! implement the equivalent envelope codec natively. The envelope model
//! follows SOAP 1.2 (the version the paper cites), and the addressing
//! model follows the March 2004 WS-Addressing draft the paper references:
//! `EndpointReference` with a mandatory `Address`, optional
//! `ReferenceProperties`, and the `To` / `Action` / `ReplyTo` /
//! `MessageID` / `RelatesTo` SOAP header binding.
//!
//! ```
//! use wsp_soap::{Envelope, MessageHeaders, EndpointReference};
//! use wsp_xml::Element;
//!
//! let payload = Element::build("urn:demo", "echoString").text("hi").finish();
//! let mut env = Envelope::request(payload);
//! env.set_addressing(
//!     MessageHeaders::request("p2ps://1234/Echo", "p2ps://1234/Echo#echoString")
//!         .with_reply_to(EndpointReference::new("p2ps://5678")),
//! );
//! let wire = env.to_xml();
//! let back = Envelope::from_xml(&wire).unwrap();
//! assert_eq!(back.addressing().unwrap().action.as_deref(),
//!            Some("p2ps://1234/Echo#echoString"));
//! ```

pub mod addressing;
pub mod codec;
pub mod constants;
pub mod envelope;
pub mod fault;
pub mod pattern;
pub mod typed;

pub use addressing::{EndpointReference, MessageHeaders};
pub use codec::{SoapCodec, SoapError};
pub use constants::{SOAP_ENV_NS, WSA_NS};
pub use envelope::{Body, Envelope, HeaderBlock};
pub use fault::{Fault, FaultCode};
pub use pattern::{fold, wildcard_match};
