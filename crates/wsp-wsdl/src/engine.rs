//! The server-side message engine — the Axis substitute.
//!
//! Given a service contract and a handler, [`MessageEngine::process`]
//! turns a request envelope into a response envelope: mustUnderstand
//! checking, operation dispatch, argument decoding, handler invocation
//! and result/fault encoding. WSPeer's lightweight host calls this after
//! giving the application a chance to intercept the raw message
//! (Section III, point 2). With no application looking,
//! [`MessageEngine::read_request`] and [`MessageEngine::answer`] go from
//! the request's XML to the response's bytes without either envelope.

use crate::service::{ServiceDescriptor, ServiceHandler};
use crate::value::{read_members, value_element, write_value, Value};
use std::sync::Arc;
use wsp_soap::typed::{at_plain, next_tag, read_envelope, write_envelope};
use wsp_soap::{constants, Envelope, Fault, FaultCode, MessageHeaders};
use wsp_xml::{Element, Pull, QName};

/// Server-side engine binding a contract to a handler.
pub struct MessageEngine {
    descriptor: ServiceDescriptor,
    handler: Arc<dyn ServiceHandler>,
    /// The header blocks this node understands: WS-Addressing's.
    understood: Vec<QName>,
    fault_action: String,
    /// Per operation, its response's `Action`:
    /// `{namespace}#{operation}Response`; after the `#`, its wrapper.
    response_actions: Vec<String>,
}

/// A request as [`MessageEngine::read_request`] read it: addressed,
/// dispatched and its arguments decoded, the handler not yet called.
pub struct TypedRequest {
    pub headers: MessageHeaders,
    operation: usize,
    args: Vec<Value>,
}

impl MessageEngine {
    pub fn new(descriptor: ServiceDescriptor, handler: Arc<dyn ServiceHandler>) -> Self {
        let namespace = &descriptor.namespace;
        MessageEngine {
            understood: ("To Action MessageID RelatesTo ReplyTo FaultTo From".split(' '))
                .map(|local| QName::new(constants::WSA_NS, local))
                .collect(),
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

    /// The response's `Action` and the local name of its wrapper.
    fn response_names(&self, operation: usize) -> (&str, &str) {
        let action = self.response_actions[operation].as_str();
        (action, &action[self.descriptor.namespace.len() + 1..])
    }

    /// Process one request envelope into a response envelope.
    ///
    /// One-way operations return `None` (nothing goes back); everything
    /// else — results and faults alike — returns `Some`.
    pub fn process(&self, request: &Envelope) -> Option<Envelope> {
        let request_headers = request.addressing().unwrap_or_default();
        let respond = |body: Result<Envelope, Fault>, action: &str| -> Envelope {
            let mut env = match body {
                Ok(env) => env,
                Err(fault) => Envelope::fault(fault),
            };
            env.set_addressing(MessageHeaders::response_to(&request_headers, action));
            env
        };

        // mustUnderstand: we understand WS-Addressing and our own
        // namespace; any other mandatory header is a fault.
        if let Some(block) = request.not_understood(&self.understood).first() {
            let fault = Fault::new(
                FaultCode::MustUnderstand,
                format!("mandatory header {:?} not understood", block.element.name()),
            );
            return Some(respond(Err(fault), &self.fault_action));
        }

        let Some(payload) = request.payload() else {
            let fault = Fault::sender("request body carries no operation element");
            return Some(respond(Err(fault), &self.fault_action));
        };
        let op_name = payload.name().local_name();
        let operations = &self.descriptor.operations;
        let Some(at) = operations.iter().position(|op| op.name == op_name) else {
            let fault = Fault::sender(format!(
                "service {} has no operation {op_name:?}",
                self.descriptor.name
            ))
            .with_subcode(QName::new("urn:wspeer:faults", "NoSuchOperation"));
            return Some(respond(Err(fault), &self.fault_action));
        };
        let op = &operations[at];

        // Decode arguments in declaration order.
        let mut args = Vec::with_capacity(op.inputs.len());
        for param in &op.inputs {
            match payload
                .find(self.descriptor.namespace.as_str(), &param.name)
                .or_else(|| payload.find_local(&param.name))
            {
                Some(el) => match Value::decode(el, &param.ty) {
                    Ok(v) => args.push(v),
                    Err(e) => {
                        let fault = Fault::sender(format!("argument {:?}: {e}", param.name));
                        return Some(respond(Err(fault), &self.fault_action));
                    }
                },
                None if param.optional => args.push(Value::Null),
                None => {
                    let fault =
                        Fault::sender(format!("missing required argument {:?}", param.name));
                    return Some(respond(Err(fault), &self.fault_action));
                }
            }
        }

        let result = self.handler.invoke(op_name, &args);
        if !op.expects_response() {
            // One-way: nothing to send, even on handler error (the error
            // is the host's to log).
            return None;
        }

        let (action, wrapper) = self.response_names(at);
        let body = result.map(|value| {
            let ns = self.descriptor.namespace.as_str();
            let mut wrapper = Element::new(ns.to_owned(), wrapper.to_owned());
            wrapper.push_element(value_element(ns, "return", &value));
            Envelope::request(wrapper)
        });
        Some(respond(body, action))
    }

    /// Read a request's XML as far as [`MessageEngine::process`] goes
    /// before it calls the handler, with no tree; `foreign` is shown the
    /// header blocks that are not WS-Addressing's. `None` for whatever
    /// [`read_envelope`] or [`read_members`] declines and for every
    /// request `process` answers with a fault of its own: parsed and
    /// processed, such a request gets the answer it always got.
    pub fn read_request(
        &self,
        xml: &str,
        foreign: &mut dyn FnMut(&Element),
    ) -> Option<TypedRequest> {
        let (headers, (operation, args)) = read_envelope(xml, foreign, |reader| {
            let ns = self.descriptor.namespace.as_str();
            let wrapper = next_tag(reader)? == Pull::Start;
            let local = reader.local_name();
            let operations = &self.descriptor.operations;
            let at = operations.iter().position(|op| op.name == local)?;
            if !(wrapper && at_plain(reader, ns, local)) {
                return None;
            }
            let args = read_members(reader, &operations[at].inputs, Some(ns), None)?;
            (next_tag(reader)? == Pull::End).then_some((at, args))
        })?;
        Some(TypedRequest {
            headers,
            operation,
            args,
        })
    }

    /// The rest of [`MessageEngine::process`] for such a request: call
    /// the handler and append the response's wire bytes to `out`.
    /// `Some(true)` if they are a fault's, `None` — nothing written —
    /// for a one-way operation. With `readdress`, the bytes are those
    /// of the engine's envelope after `set_addressing(readdress)`.
    pub fn answer(
        &self,
        request: &TypedRequest,
        readdress: Option<&MessageHeaders>,
        out: &mut Vec<u8>,
    ) -> Option<bool> {
        let op = &self.descriptor.operations[request.operation];
        let result = self.handler.invoke(&op.name, &request.args);
        if !op.expects_response() {
            return None;
        }
        let (action, wrapper) = self.response_names(request.operation);
        let own = |action| MessageHeaders::response_to(&request.headers, action);
        match result {
            Ok(value) => {
                let ns = self.descriptor.namespace.as_str();
                let body = |out: &mut wsp_xml::StreamWriter<'_>| {
                    out.element(ns, wrapper, |out| write_value(out, ns, "return", &value));
                };
                // What `set_addressing` keeps of the engine's own
                // headers: the reference properties of `ReplyTo`.
                let reply_to = request.headers.reply_to.as_ref();
                let kept = reply_to.map_or(&[][..], |r| &r.reference_properties);
                match readdress {
                    Some(headers) => write_envelope(out, kept, headers, body),
                    None => write_envelope(out, &[], &own(action), body),
                }
                Some(false)
            }
            // Faults are rare and carry trees of their own. (The
            // handler's go out under the response's action.)
            Err(fault) => {
                let mut envelope = Envelope::fault(fault);
                envelope.set_addressing(own(action));
                if let Some(headers) = readdress {
                    envelope.set_addressing(headers.clone());
                }
                envelope.to_xml_into(out);
                Some(true)
            }
        }
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
