//! WSDL 1.1 document model: generation from a [`ServiceDescriptor`] and
//! parsing back.
//!
//! WSPeer publishes services as WSDL (over UDDI or a P2PS definition
//! pipe) and consumes WSDL when locating services, so generation and
//! parsing must round-trip faithfully.

use crate::service::{OperationDef, Param, ServiceDescriptor};
use crate::xsd::{Schema, XsdType, XSD_NS};
use std::fmt;
use wsp_xml::{Element, QName};

/// WSDL 1.1 namespace.
pub const WSDL_NS: &str = "http://schemas.xmlsoap.org/wsdl/";
/// WSDL SOAP binding namespace.
pub const WSDL_SOAP_NS: &str = "http://schemas.xmlsoap.org/wsdl/soap12/";
/// WSPeer's WSDL extension namespace (discovery properties travel in the
/// description so they survive a locate round trip on any binding).
pub const WSP_EXT_NS: &str = "urn:wspeer:wsdl-ext";

/// Transport identifiers carried in `soap:binding/@transport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Plain HTTP (the standard implementation's default).
    Http,
    /// HTTPG — the authenticated transport used by Globus.
    Httpg,
    /// SOAP over P2PS pipes.
    P2ps,
}

impl TransportKind {
    pub fn uri(self) -> &'static str {
        match self {
            TransportKind::Http => "http://schemas.xmlsoap.org/soap/http",
            TransportKind::Httpg => "urn:wspeer:transport:httpg",
            TransportKind::P2ps => "urn:wspeer:transport:p2ps",
        }
    }

    pub fn from_uri(uri: &str) -> Option<TransportKind> {
        match uri {
            "http://schemas.xmlsoap.org/soap/http" => Some(TransportKind::Http),
            "urn:wspeer:transport:httpg" => Some(TransportKind::Httpg),
            "urn:wspeer:transport:p2ps" => Some(TransportKind::P2ps),
            _ => None,
        }
    }

    /// The URI scheme of endpoint addresses on this transport.
    pub fn scheme(self) -> &'static str {
        match self {
            TransportKind::Http => "http",
            TransportKind::Httpg => "httpg",
            TransportKind::P2ps => "p2ps",
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportKind::Http => "http",
            TransportKind::Httpg => "httpg",
            TransportKind::P2ps => "p2ps",
        })
    }
}

/// A concrete endpoint in the WSDL `service` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    pub name: String,
    pub transport: TransportKind,
    /// `soap:address/@location` — the endpoint URI.
    pub location: String,
}

impl Port {
    /// The port an HTTP(G) host names for `service` at `location`:
    /// `{service}Port`. The host and a consumer rebuilding its
    /// description ([`WsdlDocument::rebuild`]) both name it here.
    pub fn hosted(service: &str, transport: TransportKind, location: impl Into<String>) -> Port {
        Port {
            name: format!("{service}Port"),
            transport,
            location: location.into(),
        }
    }
}

/// A parsed or generated WSDL document.
#[derive(Debug, Clone, PartialEq)]
pub struct WsdlDocument {
    pub descriptor: ServiceDescriptor,
    pub ports: Vec<Port>,
}

impl WsdlDocument {
    /// Describe `descriptor` with concrete endpoints.
    pub fn new(descriptor: ServiceDescriptor, ports: Vec<Port>) -> Self {
        WsdlDocument { descriptor, ports }
    }

    /// The description an HTTP(G) host serves for the interface
    /// `template` (its name ignored) deployed as `name` at `location`:
    /// one [`Port::hosted`] port. What a consumer that holds the
    /// interface builds from a registry record instead of fetching it.
    pub fn rebuild(
        template: &ServiceDescriptor,
        name: &str,
        transport: TransportKind,
        location: &str,
    ) -> WsdlDocument {
        let descriptor = ServiceDescriptor {
            name: name.to_owned(),
            ..template.clone()
        };
        WsdlDocument::new(descriptor, vec![Port::hosted(name, transport, location)])
    }

    /// The first port on a given transport.
    pub fn port_for(&self, transport: TransportKind) -> Option<&Port> {
        self.ports.iter().find(|p| p.transport == transport)
    }

    /// Generate the `wsdl:definitions` element.
    pub fn to_element(&self) -> Element {
        let d = &self.descriptor;
        let tns = d.namespace.clone();
        let mut defs = Element::new(WSDL_NS, "definitions");
        defs.set_attribute(QName::local("name"), d.name.clone());
        defs.set_attribute(QName::local("targetNamespace"), tns.clone());

        if let Some(doc) = &d.documentation {
            defs.push_element(
                Element::build(WSDL_NS, "documentation")
                    .text(doc.clone())
                    .finish(),
            );
        }

        // WSPeer extension: discovery properties (WSDL 1.1 permits
        // extension elements in other namespaces).
        if !d.properties.is_empty() {
            let mut props = Element::new(WSP_EXT_NS, "Properties");
            for (key, value) in &d.properties {
                props.push_element(
                    Element::build(WSP_EXT_NS, "Property")
                        .attr_str("name", key.clone())
                        .text(value.clone())
                        .finish(),
                );
            }
            defs.push_element(props);
        }

        // types
        if !d.schema.types.is_empty() {
            let types = Element::build(WSDL_NS, "types")
                .child(d.schema.to_element(&tns))
                .finish();
            defs.push_element(types);
        }

        // messages
        for op in &d.operations {
            defs.push_element(message_element(&format!("{}Request", op.name), &op.inputs));
            if let Some(out) = &op.output {
                defs.push_element(message_element(
                    &format!("{}Response", op.name),
                    std::slice::from_ref(out),
                ));
            }
        }

        // portType
        let mut port_type = Element::new(WSDL_NS, "portType");
        port_type.set_attribute(QName::local("name"), format!("{}PortType", d.name));
        for op in &d.operations {
            let mut o = Element::new(WSDL_NS, "operation");
            o.set_attribute(QName::local("name"), op.name.clone());
            if let Some(doc) = &op.documentation {
                o.push_element(
                    Element::build(WSDL_NS, "documentation")
                        .text(doc.clone())
                        .finish(),
                );
            }
            let mut input = Element::new(WSDL_NS, "input");
            input.set_attribute(QName::local("message"), format!("tns:{}Request", op.name));
            o.push_element(input);
            if op.output.is_some() {
                let mut output = Element::new(WSDL_NS, "output");
                output.set_attribute(QName::local("message"), format!("tns:{}Response", op.name));
                o.push_element(output);
            }
            port_type.push_element(o);
        }
        defs.push_element(port_type);

        // one binding per distinct transport in use
        let mut seen = Vec::new();
        for port in &self.ports {
            if seen.contains(&port.transport) {
                continue;
            }
            seen.push(port.transport);
            let mut binding = Element::new(WSDL_NS, "binding");
            binding.set_attribute(QName::local("name"), binding_name(&d.name, port.transport));
            binding.set_attribute(QName::local("type"), format!("tns:{}PortType", d.name));
            let mut soap_binding = Element::new(WSDL_SOAP_NS, "binding");
            soap_binding.set_attribute(QName::local("transport"), port.transport.uri());
            soap_binding.set_attribute(QName::local("style"), "document");
            binding.push_element(soap_binding);
            defs.push_element(binding);
        }

        // service with its ports
        let mut service = Element::new(WSDL_NS, "service");
        service.set_attribute(QName::local("name"), d.name.clone());
        for port in &self.ports {
            let mut p = Element::new(WSDL_NS, "port");
            p.set_attribute(QName::local("name"), port.name.clone());
            p.set_attribute(
                QName::local("binding"),
                format!("tns:{}", binding_name(&d.name, port.transport)),
            );
            let mut addr = Element::new(WSDL_SOAP_NS, "address");
            addr.set_attribute(QName::local("location"), port.location.clone());
            p.push_element(addr);
            service.push_element(p);
        }
        defs.push_element(service);
        defs
    }

    /// Serialise to XML text.
    pub fn to_xml(&self) -> String {
        let config = wsp_xml::WriterConfig::wire()
            .prefer(WSDL_NS, "wsdl")
            .prefer(WSDL_SOAP_NS, "soap")
            .prefer(XSD_NS, "xsd");
        wsp_xml::Writer::new(config).write(&self.to_element())
    }

    /// Parse a `wsdl:definitions` element.
    pub fn from_element(root: &Element) -> Result<WsdlDocument, WsdlError> {
        if !root.name().is(WSDL_NS, "definitions") {
            return Err(WsdlError::NotWsdl {
                found: format!("{:?}", root.name()),
            });
        }
        let namespace = root
            .attribute_local("targetNamespace")
            .ok_or(WsdlError::Missing("targetNamespace"))?
            .to_owned();
        let name = root.attribute_local("name").unwrap_or("Service").to_owned();

        let documentation = root.find(WSDL_NS, "documentation").map(Element::text);

        let properties = root
            .find(WSP_EXT_NS, "Properties")
            .map(|props| {
                props
                    .find_all(WSP_EXT_NS, "Property")
                    .filter_map(|p| p.attribute_local("name").map(|n| (n.to_owned(), p.text())))
                    .collect()
            })
            .unwrap_or_default();

        let schema = root
            .find(WSDL_NS, "types")
            .and_then(|t| t.find(XSD_NS, "schema"))
            .map(Schema::from_element)
            .unwrap_or_default();

        // messages: name -> params
        let mut messages: Vec<(String, Vec<Param>)> = Vec::new();
        for m in root.find_all(WSDL_NS, "message") {
            let Some(mname) = m.attribute_local("name") else {
                continue;
            };
            let mut params = Vec::new();
            for part in m.find_all(WSDL_NS, "part") {
                let Some(pname) = part.attribute_local("name") else {
                    continue;
                };
                let ty = part
                    .attribute_local("type")
                    .map(XsdType::from_type_ref)
                    .unwrap_or(XsdType::AnyType);
                let optional = part.attribute_local("minOccurs") == Some("0");
                params.push(Param {
                    name: pname.to_owned(),
                    ty,
                    optional,
                });
            }
            messages.push((mname.to_owned(), params));
        }
        let lookup = |msg_ref: &str| -> Vec<Param> {
            let local = msg_ref.rsplit(':').next().unwrap_or(msg_ref);
            messages
                .iter()
                .find(|(n, _)| n == local)
                .map(|(_, p)| p.clone())
                .unwrap_or_default()
        };

        let port_type = root
            .find(WSDL_NS, "portType")
            .ok_or(WsdlError::Missing("portType"))?;
        let mut operations = Vec::new();
        for o in port_type.find_all(WSDL_NS, "operation") {
            let Some(oname) = o.attribute_local("name") else {
                continue;
            };
            let inputs = o
                .find(WSDL_NS, "input")
                .and_then(|i| i.attribute_local("message"))
                .map(&lookup)
                .unwrap_or_default();
            let output = o
                .find(WSDL_NS, "output")
                .and_then(|out| out.attribute_local("message"))
                .map(&lookup)
                .and_then(|params| params.into_iter().next());
            let documentation = o.find(WSDL_NS, "documentation").map(Element::text);
            operations.push(OperationDef {
                name: oname.to_owned(),
                inputs,
                output,
                documentation,
            });
        }

        // bindings: name -> transport
        let mut bindings: Vec<(String, TransportKind)> = Vec::new();
        for b in root.find_all(WSDL_NS, "binding") {
            let Some(bname) = b.attribute_local("name") else {
                continue;
            };
            let transport = b
                .find(WSDL_SOAP_NS, "binding")
                .and_then(|sb| sb.attribute_local("transport"))
                .and_then(TransportKind::from_uri)
                .unwrap_or(TransportKind::Http);
            bindings.push((bname.to_owned(), transport));
        }

        let mut ports = Vec::new();
        if let Some(service) = root.find(WSDL_NS, "service") {
            for p in service.find_all(WSDL_NS, "port") {
                let Some(pname) = p.attribute_local("name") else {
                    continue;
                };
                let Some(location) = p
                    .find(WSDL_SOAP_NS, "address")
                    .and_then(|a| a.attribute_local("location"))
                else {
                    continue;
                };
                let transport = p
                    .attribute_local("binding")
                    .map(|b| b.rsplit(':').next().unwrap_or(b).to_owned())
                    .and_then(|b| bindings.iter().find(|(n, _)| *n == b).map(|(_, t)| *t))
                    .unwrap_or(TransportKind::Http);
                ports.push(Port {
                    name: pname.to_owned(),
                    transport,
                    location: location.to_owned(),
                });
            }
        }

        let descriptor = ServiceDescriptor {
            name,
            namespace,
            operations,
            schema,
            documentation,
            properties,
        };
        Ok(WsdlDocument { descriptor, ports })
    }

    /// Parse XML text.
    pub fn from_xml(xml: &str) -> Result<WsdlDocument, WsdlError> {
        let root = wsp_xml::parse(xml).map_err(WsdlError::Xml)?;
        WsdlDocument::from_element(&root)
    }
}

fn binding_name(service: &str, transport: TransportKind) -> String {
    format!("{service}{}Binding", capitalised(transport))
}

fn capitalised(t: TransportKind) -> &'static str {
    match t {
        TransportKind::Http => "Http",
        TransportKind::Httpg => "Httpg",
        TransportKind::P2ps => "P2ps",
    }
}

fn message_element(name: &str, params: &[Param]) -> Element {
    let mut m = Element::new(WSDL_NS, "message");
    m.set_attribute(QName::local("name"), name.to_owned());
    for p in params {
        let mut part = Element::new(WSDL_NS, "part");
        part.set_attribute(QName::local("name"), p.name.clone());
        part.set_attribute(QName::local("type"), p.ty.type_ref());
        if p.optional {
            part.set_attribute(QName::local("minOccurs"), "0");
        }
        m.push_element(part);
    }
    m
}

/// Errors raised while parsing WSDL.
#[derive(Debug, Clone, PartialEq)]
pub enum WsdlError {
    Xml(wsp_xml::XmlError),
    NotWsdl { found: String },
    Missing(&'static str),
}

impl fmt::Display for WsdlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsdlError::Xml(e) => write!(f, "WSDL is not well-formed: {e}"),
            WsdlError::NotWsdl { found } => {
                write!(f, "root element {found} is not wsdl:definitions")
            }
            WsdlError::Missing(what) => write!(f, "WSDL lacks required {what}"),
        }
    }
}

impl std::error::Error for WsdlError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xsd::{ComplexType, FieldDef};

    fn sample_doc() -> WsdlDocument {
        let mut schema = Schema::new();
        schema.define(
            "Frame",
            ComplexType::new(vec![
                FieldDef::new("step", XsdType::Int),
                FieldDef::new("payload", XsdType::Base64Binary),
            ]),
        );
        let descriptor = ServiceDescriptor::new("Cactus", "urn:wspeer:cactus")
            .doc("Streams simulation frames")
            .with_schema(schema)
            .operation(
                OperationDef::new("nextFrame")
                    .input("sinceStep", XsdType::Int)
                    .returns(XsdType::Complex("Frame".into()))
                    .doc("Returns the next available frame"),
            )
            .operation(OperationDef::new("stop").one_way());
        WsdlDocument::new(
            descriptor,
            vec![
                Port {
                    name: "CactusHttp".into(),
                    transport: TransportKind::Http,
                    location: "http://10.0.0.1:8080/Cactus".into(),
                },
                Port {
                    name: "CactusP2ps".into(),
                    transport: TransportKind::P2ps,
                    location: "p2ps://feed1234/Cactus".into(),
                },
            ],
        )
    }

    #[test]
    fn wsdl_round_trips() {
        let doc = sample_doc();
        let xml = doc.to_xml();
        let parsed = WsdlDocument::from_xml(&xml).unwrap();
        assert_eq!(parsed, doc, "wire form:\n{xml}");
    }

    #[test]
    fn echo_round_trips() {
        let doc = WsdlDocument::new(
            ServiceDescriptor::echo(),
            vec![Port {
                name: "EchoPort".into(),
                transport: TransportKind::Http,
                location: "http://h:1/Echo".into(),
            }],
        );
        let parsed = WsdlDocument::from_xml(&doc.to_xml()).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn port_for_selects_transport() {
        let doc = sample_doc();
        assert_eq!(
            doc.port_for(TransportKind::P2ps).unwrap().location,
            "p2ps://feed1234/Cactus"
        );
        assert!(doc.port_for(TransportKind::Httpg).is_none());
    }

    #[test]
    fn one_way_operation_has_no_output() {
        let doc = sample_doc();
        let parsed = WsdlDocument::from_xml(&doc.to_xml()).unwrap();
        let stop = parsed.descriptor.find_operation("stop").unwrap();
        assert!(!stop.expects_response());
    }

    #[test]
    fn transport_uris_round_trip() {
        for t in [
            TransportKind::Http,
            TransportKind::Httpg,
            TransportKind::P2ps,
        ] {
            assert_eq!(TransportKind::from_uri(t.uri()), Some(t));
        }
        assert_eq!(TransportKind::from_uri("urn:other"), None);
    }

    #[test]
    fn rejects_non_wsdl_documents() {
        assert!(matches!(
            WsdlDocument::from_xml("<a/>"),
            Err(WsdlError::NotWsdl { .. })
        ));
        assert!(matches!(
            WsdlDocument::from_xml("<<<"),
            Err(WsdlError::Xml(_))
        ));
    }

    #[test]
    fn missing_target_namespace_rejected() {
        let xml = format!(r#"<d:definitions xmlns:d="{WSDL_NS}"/>"#);
        assert!(matches!(
            WsdlDocument::from_xml(&xml),
            Err(WsdlError::Missing("targetNamespace"))
        ));
    }

    #[test]
    fn conventional_prefixes_in_output() {
        let xml = sample_doc().to_xml();
        assert!(xml.contains("<wsdl:definitions"), "{xml}");
        assert!(xml.contains("<soap:address"), "{xml}");
    }
}
