//! # wsp-xml
//!
//! A small, namespace-aware XML 1.0 reader and writer. Its one
//! dependency is `wsp-telemetry`, which its buffer pool counts into.
//!
//! The WSPeer paper's entire data plane is XML: SOAP envelopes, WSDL
//! descriptions, UDDI registry records and P2PS advertisements. The Rust
//! ecosystem substitution documented in `DESIGN.md` means we implement the
//! subset of XML those formats need ourselves rather than depending on an
//! external parser:
//!
//! * elements, attributes, character data, CDATA, comments and processing
//!   instructions;
//! * the five predefined entities plus decimal/hex character references;
//! * namespace declarations (`xmlns`, `xmlns:p`) with proper lexical
//!   scoping, resolved to URIs on read and re-prefixed on write.
//!
//! Deliberately out of scope: DTDs, external entities (also a security
//! hazard), and exotic encodings (documents are UTF-8 `str`s end to end).
//!
//! ## Quick example
//!
//! ```
//! use wsp_xml::{Element, QName};
//!
//! let env = Element::build("http://example.org/ns", "Greeting")
//!     .attr_str("lang", "en")
//!     .text("hello")
//!     .finish();
//! let xml = env.to_xml();
//! let parsed = wsp_xml::parse(&xml).unwrap();
//! assert_eq!(parsed.name(), &QName::new("http://example.org/ns", "Greeting"));
//! assert_eq!(parsed.text(), "hello");
//! ```

pub mod bufpool;
pub mod error;
pub mod escape;
pub mod name;
pub mod reader;
pub mod scan;
pub mod tokenizer;
pub mod tree;
pub mod writer;

pub use bufpool::{BufPool, PoolStats};
pub use error::{XmlError, XmlResult};
pub use name::{NameTable, QName, XMLNS_NS, XML_NS};
pub use reader::{parse, Pull, PullReader};
pub use tokenizer::{Token, Tokenizer};
pub use tree::{Attribute, Element, ElementBuilder, Node};
pub use writer::{decimal, StreamWriter, Writer, WriterConfig};
