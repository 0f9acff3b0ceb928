//! The server-side message engine — the Axis substitute.
//!
//! Given a service contract and a handler, the engine reads a request
//! off its XML ([`MessageEngine::read_request`]: mustUnderstand
//! checking, operation dispatch, argument decoding — or the fault the
//! request earns), calls the handler ([`MessageEngine::call`]) and
//! writes the response's bytes ([`MessageEngine::write_response`]), no
//! envelope built on the way. WSPeer's lightweight host shows the
//! application the message either side of the engine (Section III,
//! point 2) by parsing a view of the bytes when somebody listens.

use crate::service::{ServiceDescriptor, ServiceHandler};
use crate::value::{read_members, read_value, write_value, Value};
use std::sync::Arc;
use wsp_soap::constants::FAULTS_NS;
use wsp_soap::typed::{name_of, plain, read_envelope, write_envelope, Payload, Rule};
use wsp_soap::{Envelope, Fault, FaultCode, HeaderBlock, MessageHeaders, SoapError};
use wsp_xml::{QName, StreamWriter};

/// Server-side engine binding a contract to a handler.
pub struct MessageEngine {
    descriptor: ServiceDescriptor,
    handler: Arc<dyn ServiceHandler>,
    fault_action: String,
    /// Per operation, its response's `Action`:
    /// `{namespace}#{operation}Response`; after the `#`, its wrapper.
    response_actions: Vec<String>,
}

/// A request as [`MessageEngine::read_request`] read it: its headers,
/// and the operation with its arguments decoded — or the fault the
/// engine answers it with — the handler not yet called.
pub struct TypedRequest {
    pub headers: MessageHeaders,
    call: Result<(usize, Vec<Value>), Fault>,
}

/// What the handler made of a request, before it is written: the
/// operation's result, or a fault (the handler's, or the engine's for a
/// request it refused).
pub struct Outcome {
    operation: Option<usize>,
    result: Result<Value, Fault>,
}

impl MessageEngine {
    pub fn new(descriptor: ServiceDescriptor, handler: Arc<dyn ServiceHandler>) -> Self {
        let namespace = &descriptor.namespace;
        MessageEngine {
            fault_action: format!("{namespace}#fault"),
            response_actions: (descriptor.operations.iter())
                .map(|op| format!("{namespace}#{}Response", op.name))
                .collect(),
            descriptor,
            handler,
        }
    }

    pub fn descriptor(&self) -> &ServiceDescriptor {
        &self.descriptor
    }

    /// Read a request's XML as far as the handler call, with no tree;
    /// `foreign` is shown every header block that is not a WS-Addressing
    /// header this node reads. The first such block marked
    /// `mustUnderstand` is a `MustUnderstand` fault, whatever the body
    /// says; then an empty body, an unknown operation (subcode
    /// `NoSuchOperation`), a missing or badly typed argument and the
    /// shape [`Rule`]s earn their sender faults. `Err` only for what
    /// parsing the envelope refuses.
    pub fn read_request(
        &self,
        xml: &str,
        foreign: &mut dyn FnMut(&HeaderBlock),
    ) -> Result<TypedRequest, SoapError> {
        let mut not_understood = None;
        let mut watch = |block: &HeaderBlock| {
            if block.must_understand && not_understood.is_none() {
                not_understood = Some(block.element.name().clone());
            }
            foreign(block);
        };
        let (headers, call) = read_envelope(xml, &mut watch, |payload| self.read_call(payload))?;
        let call = match not_understood {
            Some(name) => Err(Fault::new(
                FaultCode::MustUnderstand,
                format!("mandatory header {name:?} not understood"),
            )),
            None => call,
        };
        Ok(TypedRequest { headers, call })
    }

    /// The body of a request: which operation, with which arguments.
    fn read_call(&self, payload: Payload<'_, '_>) -> Result<(usize, Vec<Value>), SoapError> {
        let Payload::Element(reader) = payload else {
            return Err(Fault::sender("request body carries no operation element").into());
        };
        let ns = self.descriptor.namespace.as_str();
        let local = reader.local_name();
        let operations = &self.descriptor.operations;
        let Some(at) = operations.iter().position(|op| op.name == local) else {
            let service = &self.descriptor.name;
            let fault = Fault::sender(format!("service {service} has no operation {local:?}"));
            return Err(fault
                .with_subcode(QName::new(FAULTS_NS, "NoSuchOperation"))
                .into());
        };
        if !reader.is(ns, local) {
            return Err(Rule::UnknownElement.refuse(name_of(reader)));
        }
        plain(reader)?;
        let args = read_members(
            reader,
            &operations[at].inputs,
            ns,
            |reader, param| {
                let value = read_value(reader, ns, &param.ty, None);
                value.map_err(|e| e.within(format_args!("argument {:?}", param.name)))
            },
            |param| Fault::sender(format!("missing required argument {:?}", param.name)),
        )?;
        Ok((at, args))
    }

    /// Call the handler on a request that was read: its outcome, `None`
    /// for a one-way operation. A refused request's outcome is its fault.
    pub fn call(&self, request: &TypedRequest) -> Option<Outcome> {
        let outcome = |operation, result| Outcome { operation, result };
        match &request.call {
            Err(fault) => Some(outcome(None, Err(fault.clone()))),
            Ok((at, args)) => {
                let op = &self.descriptor.operations[*at];
                let result = self.handler.invoke(&op.name, args);
                op.expects_response().then(|| outcome(Some(*at), result))
            }
        }
    }

    /// Append the response `outcome` is to `out`, under the engine's own
    /// headers — `response_to` the request's, the action its operation's
    /// response's (a refused request's: the service's fault action) —
    /// or, with `readdress`, under those, after what `set_addressing`
    /// keeps of the engine's own: the reference properties of the
    /// request's `ReplyTo`. True if the bytes are a fault's.
    pub fn write_response(
        &self,
        request: &TypedRequest,
        outcome: &Outcome,
        readdress: Option<&MessageHeaders>,
        out: &mut Vec<u8>,
    ) -> bool {
        let ns = self.descriptor.namespace.as_str();
        let (action, wrapper) = match outcome.operation {
            Some(at) => {
                let action = self.response_actions[at].as_str();
                (action, &action[ns.len() + 1..])
            }
            None => (self.fault_action.as_str(), ""),
        };
        let body = |out: &mut StreamWriter<'_>| match &outcome.result {
            Ok(value) => out.element(ns, wrapper, |out| write_value(out, ns, "return", value)),
            Err(fault) => out.tree(&fault.to_element()),
        };
        match readdress {
            Some(headers) => {
                let reply_to = request.headers.reply_to.as_ref();
                let kept = reply_to.map_or(&[][..], |r| &r.reference_properties);
                write_envelope(out, kept, headers, body);
            }
            None => {
                let own = MessageHeaders::response_to(&request.headers, action);
                write_envelope(out, &[], &own, body);
            }
        }
        outcome.result.is_err()
    }

    /// [`MessageEngine::call`], then [`MessageEngine::write_response`]:
    /// `Some(true)` if a fault was written, `None` — nothing written —
    /// for a one-way operation.
    pub fn answer(
        &self,
        request: &TypedRequest,
        readdress: Option<&MessageHeaders>,
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        let outcome = self.call(request)?;
        Some(self.write_response(request, &outcome, readdress, out))
    }

    /// The engine over envelopes, for `bench/`, whose ladder times it:
    /// `request` written out, read and answered, the answer parsed back.
    /// One-way operations return `None`. ROADMAP item 3 ports `bench/`
    /// to [`MessageEngine::read_request`] + [`MessageEngine::answer`]
    /// and deletes this.
    pub fn process(&self, request: &Envelope) -> Option<Envelope> {
        let request = match self.read_request(&request.to_xml(), &mut |_| {}) {
            Ok(request) => request,
            Err(e) => return Some(Envelope::fault(e.to_fault())),
        };
        let mut out = Vec::new();
        self.answer(&request, None, &mut out)?;
        let xml = String::from_utf8(out).expect("writer output is UTF-8");
        Some(Envelope::from_xml(&xml).expect("the engine writes envelopes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proxy::ServiceProxy;
    use crate::service::OperationDef;
    use crate::xsd::XsdType;
    use wsp_soap::HeaderBlock;
    use wsp_xml::Element;

    fn echo_engine() -> MessageEngine {
        MessageEngine::new(
            ServiceDescriptor::echo(),
            Arc::new(|_op: &str, args: &[Value]| -> Result<Value, Fault> { Ok(args[0].clone()) }),
        )
    }

    fn proxy() -> ServiceProxy {
        ServiceProxy::new(ServiceDescriptor::echo(), "urn:endpoint")
    }

    #[test]
    fn full_request_response_cycle() {
        let engine = echo_engine();
        let request = proxy()
            .encode_request("echoString", &[Value::string("ping")])
            .unwrap();
        let response = engine.process(&request).unwrap();
        let value = proxy().decode_response("echoString", &response).unwrap();
        assert_eq!(value, Value::string("ping"));
    }

    #[test]
    fn response_correlates_to_request_id() {
        let engine = echo_engine();
        let request = proxy()
            .encode_request("echoString", &[Value::string("x")])
            .unwrap();
        let req_id = request.addressing().unwrap().message_id;
        let response = engine.process(&request).unwrap();
        assert_eq!(response.addressing().unwrap().relates_to, req_id);
    }

    #[test]
    fn unknown_operation_faults_with_subcode() {
        let engine = echo_engine();
        let payload = Element::new("urn:wspeer:echo", "noSuchOp");
        let response = engine.process(&Envelope::request(payload)).unwrap();
        let fault = response.fault_body().unwrap();
        assert_eq!(fault.code, FaultCode::Sender);
        assert_eq!(
            fault.subcode.as_ref().unwrap().local_name(),
            "NoSuchOperation"
        );
    }

    #[test]
    fn missing_argument_faults() {
        let engine = echo_engine();
        let payload = Element::new("urn:wspeer:echo", "echoString"); // no text arg
        let response = engine.process(&Envelope::request(payload)).unwrap();
        let fault = response.fault_body().unwrap();
        assert!(fault.reason.contains("text"));
    }

    #[test]
    fn badly_typed_argument_faults() {
        let descriptor = ServiceDescriptor::new("Math", "urn:math").operation(
            OperationDef::new("square")
                .input("n", XsdType::Int)
                .returns(XsdType::Int),
        );
        let engine = MessageEngine::new(
            descriptor.clone(),
            Arc::new(|_: &str, args: &[Value]| -> Result<Value, Fault> {
                let n = args[0].as_int().unwrap();
                Ok(Value::Int(n * n))
            }),
        );
        let mut payload = Element::new("urn:math", "square");
        payload.push_element(
            Element::build("urn:math", "n")
                .text("not-a-number")
                .finish(),
        );
        let response = engine.process(&Envelope::request(payload)).unwrap();
        assert!(response.fault_body().unwrap().reason.contains("n"));
    }

    #[test]
    fn empty_body_faults() {
        let engine = echo_engine();
        let response = engine.process(&Envelope::empty()).unwrap();
        assert!(response.fault_body().is_some());
    }

    #[test]
    fn handler_fault_propagates() {
        let engine = MessageEngine::new(
            ServiceDescriptor::echo(),
            Arc::new(|_: &str, _: &[Value]| -> Result<Value, Fault> {
                Err(Fault::receiver("backend down"))
            }),
        );
        let request = proxy()
            .encode_request("echoString", &[Value::string("x")])
            .unwrap();
        let response = engine.process(&request).unwrap();
        assert_eq!(response.fault_body().unwrap().reason, "backend down");
    }

    #[test]
    fn unknown_mandatory_header_faults() {
        let engine = echo_engine();
        let mut request = proxy()
            .encode_request("echoString", &[Value::string("x")])
            .unwrap();
        request.add_header(HeaderBlock::mandatory(Element::new(
            "urn:strange",
            "Security",
        )));
        let response = engine.process(&request).unwrap();
        assert_eq!(
            response.fault_body().unwrap().code,
            FaultCode::MustUnderstand
        );
    }

    #[test]
    fn optional_mystery_header_ignored() {
        let engine = echo_engine();
        let mut request = proxy()
            .encode_request("echoString", &[Value::string("x")])
            .unwrap();
        request.add_header(HeaderBlock::new(Element::new("urn:strange", "Trace")));
        let response = engine.process(&request).unwrap();
        assert!(response.fault_body().is_none());
    }

    #[test]
    fn one_way_operation_returns_none() {
        let descriptor = ServiceDescriptor::new("Log", "urn:log").operation(
            OperationDef::new("record")
                .input("line", XsdType::String)
                .one_way(),
        );
        let engine = MessageEngine::new(
            descriptor.clone(),
            Arc::new(|_: &str, _: &[Value]| -> Result<Value, Fault> { Ok(Value::Null) }),
        );
        let proxy = ServiceProxy::new(descriptor, "urn:log-endpoint");
        let request = proxy
            .encode_request("record", &[Value::string("hello")])
            .unwrap();
        assert!(engine.process(&request).is_none());
    }

    #[test]
    fn optional_argument_defaults_to_null() {
        let descriptor = ServiceDescriptor::new("Opt", "urn:opt").operation(
            OperationDef::new("greet")
                .input("name", XsdType::String)
                .optional_input("greeting", XsdType::String)
                .returns(XsdType::String),
        );
        let engine = MessageEngine::new(
            descriptor.clone(),
            Arc::new(|_: &str, args: &[Value]| -> Result<Value, Fault> {
                let name = args[0].as_str().unwrap();
                let greeting = args[1].as_str().unwrap_or("hello");
                Ok(Value::string(format!("{greeting} {name}")))
            }),
        );
        let proxy = ServiceProxy::new(descriptor, "urn:e");
        let request = proxy
            .encode_request("greet", &[Value::string("ian")])
            .unwrap();
        let response = engine.process(&request).unwrap();
        assert_eq!(
            proxy.decode_response("greet", &response).unwrap(),
            Value::string("hello ian")
        );
    }
}
