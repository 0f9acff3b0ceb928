//! The client-side dynamic proxy — the stub-generation substitute.
//!
//! Axis generates Java stubs from WSDL; WSPeer even extends that to
//! generate them "directly to bytes". The Rust equivalent constructs a
//! [`ServiceProxy`] from a parsed WSDL (or a local descriptor) at
//! runtime. The proxy validates calls against the contract, encodes
//! requests and reads responses; actual transport is supplied by the
//! caller, keeping the proxy binding-agnostic (the same proxy drives
//! HTTP and P2PS invocations). [`write_request`] and [`read_response`]
//! are the "directly to bytes" form: no envelope built.

use crate::model::WsdlDocument;
use crate::service::OperationDef;
use crate::service::ServiceDescriptor;
use crate::value::{read_value, value_element, write_value, Value};
use crate::xsd::XsdType;
use std::fmt;
use wsp_soap::typed::{name_of, next_tag, plain, read_envelope, write_envelope};
use wsp_soap::typed::{Payload, Rule};
use wsp_soap::{Envelope, Fault, MessageHeaders, SoapError};
use wsp_xml::{Element, Pull, PullReader};

/// Errors raised on the client side of an invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum ProxyError {
    /// The contract has no such operation.
    NoSuchOperation(String),
    /// Wrong number of arguments.
    ArityMismatch {
        operation: String,
        expected: usize,
        got: usize,
    },
    /// An argument does not conform to the declared parameter type.
    TypeMismatch {
        operation: String,
        param: String,
        expected: String,
    },
    /// The service answered with a fault (boxed: faults carry XML detail
    /// and would otherwise dominate the enum's size).
    Fault(Box<Fault>),
    /// The response envelope was not shaped as the contract promises.
    BadResponse(String),
}

impl fmt::Display for ProxyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProxyError::NoSuchOperation(op) => write!(f, "no operation {op:?} in contract"),
            ProxyError::ArityMismatch {
                operation,
                expected,
                got,
            } => {
                write!(f, "{operation}: expected {expected} argument(s), got {got}")
            }
            ProxyError::TypeMismatch {
                operation,
                param,
                expected,
            } => {
                write!(f, "{operation}: argument {param:?} must be {expected}")
            }
            ProxyError::Fault(fault) => write!(f, "{fault}"),
            ProxyError::BadResponse(why) => write!(f, "malformed response: {why}"),
        }
    }
}

impl std::error::Error for ProxyError {}

impl From<Fault> for ProxyError {
    fn from(f: Fault) -> Self {
        ProxyError::Fault(Box::new(f))
    }
}

/// A typed, transport-agnostic view of one remote service endpoint.
#[derive(Debug, Clone)]
pub struct ServiceProxy {
    descriptor: ServiceDescriptor,
    /// The endpoint URI placed in `wsa:To`.
    endpoint: String,
}

impl ServiceProxy {
    /// Build from a local descriptor and an endpoint address.
    pub fn new(descriptor: ServiceDescriptor, endpoint: impl Into<String>) -> Self {
        ServiceProxy {
            descriptor,
            endpoint: endpoint.into(),
        }
    }

    /// Build from WSDL, using the location of the first port (or of the
    /// port matching `port_name` if given).
    pub fn from_wsdl(document: &WsdlDocument, port_name: Option<&str>) -> Result<Self, ProxyError> {
        let port = match port_name {
            Some(name) => document.ports.iter().find(|p| p.name == name),
            None => document.ports.first(),
        }
        .ok_or_else(|| ProxyError::BadResponse("WSDL defines no usable port".to_owned()))?;
        Ok(ServiceProxy::new(
            document.descriptor.clone(),
            port.location.clone(),
        ))
    }

    pub fn descriptor(&self) -> &ServiceDescriptor {
        &self.descriptor
    }

    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// The `wsa:Action` for an operation at this endpoint.
    pub fn action(&self, operation: &str) -> String {
        self.descriptor.action_uri(&self.endpoint, operation)
    }

    /// Validate `args` and build the request envelope, including
    /// WS-Addressing `To`/`Action`/`MessageID` headers.
    pub fn encode_request(&self, operation: &str, args: &[Value]) -> Result<Envelope, ProxyError> {
        encode_request(&self.descriptor, &self.endpoint, operation, args)
    }

    /// [`read_response`] over an envelope, for `bench/`, whose ladder
    /// times it: `response` written out, then read. ROADMAP item 3 ports
    /// `bench/` to [`read_response`] and deletes this.
    pub fn decode_response(
        &self,
        operation: &str,
        response: &Envelope,
    ) -> Result<Value, ProxyError> {
        read_response(&self.descriptor, operation, &response.to_xml())
    }
}

/// The operation a call names, once its arguments are known to fit
/// it — what [`encode_request`] and [`write_request`] check first.
pub fn check_request<'d>(
    descriptor: &'d ServiceDescriptor,
    operation: &str,
    args: &[Value],
) -> Result<&'d OperationDef, ProxyError> {
    let op = descriptor
        .find_operation(operation)
        .ok_or_else(|| ProxyError::NoSuchOperation(operation.to_owned()))?;

    let required = op.inputs.iter().filter(|p| !p.optional).count();
    if args.len() < required || args.len() > op.inputs.len() {
        return Err(ProxyError::ArityMismatch {
            operation: operation.to_owned(),
            expected: op.inputs.len(),
            got: args.len(),
        });
    }
    for (param, arg) in op.inputs.iter().zip(args) {
        if !arg.conforms_to(&param.ty) {
            return Err(ProxyError::TypeMismatch {
                operation: operation.to_owned(),
                param: param.name.clone(),
                expected: param.ty.type_ref(),
            });
        }
    }
    Ok(op)
}

/// The parameters a request carries: all but omitted optional ones.
fn sent<'c>(op: &'c OperationDef, args: &'c [Value]) -> impl Iterator<Item = (&'c str, &'c Value)> {
    let pairs = op.inputs.iter().zip(args);
    pairs
        .filter(|(param, arg)| !(param.optional && matches!(arg, Value::Null)))
        .map(|(param, arg)| (param.name.as_str(), arg))
}

/// [`ServiceProxy::encode_request`] over a borrowed contract — for
/// callers that already hold the descriptor (a located service's WSDL)
/// and would otherwise deep-copy it into a proxy per call.
pub fn encode_request(
    descriptor: &ServiceDescriptor,
    endpoint: &str,
    operation: &str,
    args: &[Value],
) -> Result<Envelope, ProxyError> {
    let op = check_request(descriptor, operation, args)?;
    let ns = descriptor.namespace.as_str();
    let mut wrapper = Element::new(ns.to_owned(), operation.to_owned());
    for (name, arg) in sent(op, args) {
        wrapper.push_element(value_element(ns, name, arg));
    }
    let mut envelope = Envelope::request(wrapper);
    envelope.set_addressing(MessageHeaders::request(
        endpoint.to_owned(),
        descriptor.action_uri(endpoint, operation),
    ));
    Ok(envelope)
}

/// The wire bytes of [`encode_request`]'s envelope once it carries
/// `leading` and then `headers` as its header blocks, appended to `out`
/// with no envelope built.
pub fn write_request(
    descriptor: &ServiceDescriptor,
    leading: &[Element],
    headers: &MessageHeaders,
    operation: &str,
    args: &[Value],
    out: &mut Vec<u8>,
) -> Result<(), ProxyError> {
    let op = check_request(descriptor, operation, args)?;
    let ns = descriptor.namespace.as_str();
    write_envelope(out, leading, headers, |out| {
        out.element(ns, operation, |out| {
            sent(op, args).for_each(|(name, arg)| write_value(out, ns, name, arg));
        });
    });
    Ok(())
}

/// The result of `operation` that the response `xml` carries, read
/// with no tree: the value, decoded against the declared output type
/// (complex types resolved through the service schema); a fault as
/// [`ProxyError::Fault`]; `Null` for a one-way operation; anything the
/// contract does not promise — a document that is no envelope, another
/// wrapper, no `return`, a value outside its type, a shape [`Rule`] —
/// as [`ProxyError::BadResponse`].
pub fn read_response(
    descriptor: &ServiceDescriptor,
    operation: &str,
    xml: &str,
) -> Result<Value, ProxyError> {
    let op = descriptor
        .find_operation(operation)
        .ok_or_else(|| ProxyError::NoSuchOperation(operation.to_owned()))?;
    let read = read_envelope(xml, &mut |_| {}, |payload| match (payload, &op.output) {
        (Payload::Fault(fault), _) => Ok(Err(fault)),
        (_, None) => Ok(Ok(Value::Null)),
        (Payload::Empty, _) => Err(Fault::sender("response body is empty").into()),
        (Payload::Element(reader), Some(output)) => {
            read_result(reader, descriptor, operation, &output.ty).map(Ok)
        }
    });
    let (_, read) = read.map_err(|e| ProxyError::BadResponse(e.to_string()))?;
    match read {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(fault)) => Err(fault.into()),
        Err(refused) => Err(ProxyError::BadResponse(refused.reason)),
    }
}

/// The `{operation}Response` wrapper under the cursor and the one
/// `return` in it.
fn read_result(
    reader: &mut PullReader<'_>,
    descriptor: &ServiceDescriptor,
    operation: &str,
    ty: &XsdType,
) -> Result<Value, SoapError> {
    let ns = descriptor.namespace.as_str();
    let wrapper = reader.local_name();
    if wrapper.strip_suffix("Response") != Some(operation) {
        let found = name_of(reader);
        let expected = format!("expected {operation}Response wrapper, found {found}");
        return Err(Fault::sender(expected).into());
    }
    if !reader.is(ns, wrapper) {
        return Err(Rule::UnknownElement.refuse(name_of(reader)));
    }
    plain(reader)?;
    let mut value = None;
    while next_tag(reader)? == Pull::Start {
        match (reader.is(ns, "return"), &value) {
            (true, None) => value = Some(read_value(reader, ns, ty, Some(&descriptor.schema))?),
            (true, Some(_)) => return Err(Rule::Repeated.refuse("return")),
            (false, _) => return Err(Rule::UnknownElement.refuse(name_of(reader))),
        }
    }
    value.ok_or_else(|| Fault::sender("response lacks return element").into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Port, TransportKind};
    use crate::service::OperationDef;
    use crate::xsd::{ComplexType, FieldDef, Schema, XsdType};

    fn echo_proxy() -> ServiceProxy {
        ServiceProxy::new(ServiceDescriptor::echo(), "http://h:1/Echo")
    }

    #[test]
    fn encode_sets_addressing() {
        let env = echo_proxy()
            .encode_request("echoString", &[Value::string("x")])
            .unwrap();
        let wsa = env.addressing().unwrap();
        assert_eq!(wsa.to.as_deref(), Some("http://h:1/Echo"));
        assert_eq!(wsa.action.as_deref(), Some("http://h:1/Echo#echoString"));
        assert!(wsa.message_id.is_some());
    }

    #[test]
    fn unknown_operation_rejected() {
        let err = echo_proxy().encode_request("nope", &[]).unwrap_err();
        assert_eq!(err, ProxyError::NoSuchOperation("nope".into()));
    }

    #[test]
    fn arity_checked() {
        let err = echo_proxy().encode_request("echoString", &[]).unwrap_err();
        assert!(matches!(
            err,
            ProxyError::ArityMismatch {
                expected: 1,
                got: 0,
                ..
            }
        ));
        let err = echo_proxy()
            .encode_request("echoString", &[Value::string("a"), Value::string("b")])
            .unwrap_err();
        assert!(matches!(err, ProxyError::ArityMismatch { got: 2, .. }));
    }

    #[test]
    fn types_checked() {
        let err = echo_proxy()
            .encode_request("echoString", &[Value::Int(3)])
            .unwrap_err();
        assert!(matches!(err, ProxyError::TypeMismatch { .. }));
    }

    #[test]
    fn fault_response_surfaces_as_error() {
        let response = Envelope::fault(Fault::receiver("kaput"));
        let err = echo_proxy()
            .decode_response("echoString", &response)
            .unwrap_err();
        assert!(matches!(err, ProxyError::Fault(f) if f.reason == "kaput"));
    }

    #[test]
    fn wrong_wrapper_rejected() {
        let response = Envelope::request(Element::new("urn:wspeer:echo", "otherResponse"));
        let err = echo_proxy()
            .decode_response("echoString", &response)
            .unwrap_err();
        assert!(matches!(err, ProxyError::BadResponse(_)));
    }

    #[test]
    fn complex_return_decoded_through_schema() {
        let mut schema = Schema::new();
        schema.define(
            "Frame",
            ComplexType::new(vec![
                FieldDef::new("step", XsdType::Int),
                FieldDef::new("label", XsdType::String),
            ]),
        );
        let descriptor = ServiceDescriptor::new("Feed", "urn:feed")
            .with_schema(schema)
            .operation(OperationDef::new("next").returns(XsdType::Complex("Frame".into())));
        let proxy = ServiceProxy::new(descriptor, "urn:e");

        // Hand-build the response the engine would produce.
        let frame = Value::Struct(vec![
            ("step".into(), Value::Int(7)),
            ("label".into(), Value::string("t=0.7")),
        ]);
        let mut wrapper = Element::new("urn:feed", "nextResponse");
        wrapper.push_element(value_element("urn:feed", "return", &frame));
        let response = Envelope::request(wrapper);

        let got = proxy.decode_response("next", &response).unwrap();
        assert_eq!(got.field("step").unwrap().as_int(), Some(7));
        assert_eq!(got.field("label").unwrap().as_str(), Some("t=0.7"));
    }

    #[test]
    fn from_wsdl_selects_port() {
        let doc = WsdlDocument::new(
            ServiceDescriptor::echo(),
            vec![
                Port {
                    name: "A".into(),
                    transport: TransportKind::Http,
                    location: "http://a/Echo".into(),
                },
                Port {
                    name: "B".into(),
                    transport: TransportKind::P2ps,
                    location: "p2ps://b/Echo".into(),
                },
            ],
        );
        assert_eq!(
            ServiceProxy::from_wsdl(&doc, None).unwrap().endpoint(),
            "http://a/Echo"
        );
        assert_eq!(
            ServiceProxy::from_wsdl(&doc, Some("B")).unwrap().endpoint(),
            "p2ps://b/Echo"
        );
        assert!(ServiceProxy::from_wsdl(&doc, Some("C")).is_err());
    }

    #[test]
    fn round_trip_through_wire_xml() {
        // Proxy-encoded envelope survives serialisation before reaching
        // the engine (as it does over a real transport).
        let env = echo_proxy()
            .encode_request("echoString", &[Value::string("déjà <vu>")])
            .unwrap();
        let wire = env.to_xml();
        let back = Envelope::from_xml(&wire).unwrap();
        assert_eq!(
            back.payload().unwrap().find_local("text").unwrap().text(),
            "déjà <vu>"
        );
    }
}
