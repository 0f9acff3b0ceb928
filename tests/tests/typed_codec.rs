//! The typed codec held to its own oracle. Every message this
//! workspace exchanges has one reader and one writer (the tree writers
//! stay as the byte references), and they are held to this:
//!
//! 1. The streamed bytes are the tree writer's — `proxy::encode_request`,
//!    an `Envelope`, the model's `to_element`s — for generated contracts,
//!    arguments, handler outcomes and registry messages, under both
//!    bindings' header sets.
//! 2. `read(write(v)) == v`: a request is read as the call written
//!    (complex arguments as the untyped values the server reads them
//!    as), a response as the handler's outcome, a registry message as
//!    itself.
//! 3. A reader that accepts a document reads what it says: the value
//!    written back is the same document as a `wsp_xml::parse` tree, up
//!    to what DESIGN.md §11 says carries no meaning ([`canon`]) — on
//!    whole documents, on documents cut or overwritten at every offset,
//!    on the named shapes and on soup.
//! 4. The named shapes: each is read, or refused as the tree path
//!    refused it, or refused by the §11 rule its table names.
//! 5. No document panics a reader.
//! 6. `Envelope::from_xml`, the view a listener is shown, takes what
//!    the envelope reader takes and reads it alike; the rest it refuses
//!    as the reader does.

use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::borrow::Cow;
use std::sync::Arc;
use wsp_p2ps::{encode_response, request_headers, with_reply_pipe, PeerId, PipeAdvertisement};
use wsp_registry::ShardMap;
use wsp_soap::codec::SoapError;
use wsp_soap::typed::{read_envelope, write_envelope, Payload, Rule};
use wsp_soap::{Body, Envelope, Fault, FaultCode, HeaderBlock, MessageHeaders, SOAP_ENV_NS};
use wsp_uddi::wire::{read_request, read_response, write_request, write_response};
use wsp_uddi::{
    BindingTemplate, BusinessEntity, BusinessService, DataVersions, KeyedReference, ServiceInfo,
    ServiceQuery, TModel, UddiOp, UddiRequest, UddiResponse, REGISTRY_NS, UDDI_NS,
};
use wsp_wsdl::value::value_element;
use wsp_wsdl::{
    proxy, ComplexType, FieldDef, MessageEngine, OperationDef, ProxyError, Schema,
    ServiceDescriptor, Value, XsdType,
};
use wsp_xml::{Element, Node, QName, XML_NS};

const NAMESPACE: &str = "urn:wspeer:test:typed";
const ENDPOINT: &str = "http://127.0.0.1:8080/Typed";

// --- generators ---------------------------------------------------------------

/// `wire_bytes.rs`'s `tricky_text`: everything the escaper, the
/// tokenizer and the entity decoder treat specially.
fn tricky_text(rng: &mut TestRng, max_pieces: u64) -> String {
    const PIECES: [&str; 24] = [
        "<",
        ">",
        "&",
        "]]>",
        "\"",
        "'",
        " ",
        "\n",
        "\r",
        "\t",
        "é",
        "\u{2603}",
        "\u{1F600}",
        "&amp;",
        "&#x41;",
        "&bogus;",
        "<![CDATA[",
        "<!--",
        "?>",
        "</ns0:return>",
        "<ns0:item/>",
        "x",
        "soap",
        "=",
    ];
    let pieces = rng.below(max_pieces + 1);
    (0..pieces)
        .map(|_| PIECES[rng.below(PIECES.len() as u64) as usize])
        .collect()
}

fn simple_type(rng: &mut TestRng) -> XsdType {
    match rng.below(6) {
        0 => XsdType::Boolean,
        1 => XsdType::Int,
        2 => XsdType::Long,
        3 => XsdType::Double,
        4 => XsdType::Base64Binary,
        _ => XsdType::String,
    }
}

/// Any `XsdType`: simple ones, arrays (nested), the schema's two
/// structs, a complex type the schema does not define, `anyType`.
fn any_type(rng: &mut TestRng, depth: u32) -> XsdType {
    match rng.below(if depth == 0 { 6 } else { 10 }) {
        6 | 7 => XsdType::Array(Box::new(any_type(rng, depth - 1))),
        8 => XsdType::Complex(["Frame", "Pair", "Stranger"][rng.below(3) as usize].into()),
        9 => XsdType::AnyType,
        _ => simple_type(rng),
    }
}

/// `Frame` holds a `Pair`, an array and an optional field; `Pair` two
/// simple fields, one optional.
fn schema(rng: &mut TestRng) -> Schema {
    let mut schema = Schema::new();
    schema.define(
        "Pair",
        ComplexType::new(vec![
            FieldDef::new("left", simple_type(rng)),
            FieldDef::optional("right", simple_type(rng)),
        ]),
    );
    schema.define(
        "Frame",
        ComplexType::new(vec![
            FieldDef::new("step", XsdType::Int),
            FieldDef::optional("label", XsdType::String),
            FieldDef::new("pair", XsdType::Complex("Pair".into())),
            FieldDef::new("samples", XsdType::Array(Box::new(simple_type(rng)))),
        ]),
    );
    schema
}

/// A value that conforms to `ty` — now and then nil, a struct now and
/// then without an optional field.
fn value_of(rng: &mut TestRng, ty: &XsdType, schema: &Schema) -> Value {
    if rng.chance(1, 8) {
        return Value::Null;
    }
    match ty {
        XsdType::Boolean => Value::Bool(rng.chance(1, 2)),
        XsdType::Int | XsdType::Long => Value::Int(rng.next_u64() as i64 >> rng.below(64)),
        XsdType::Double => Value::Double(match rng.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            _ => (rng.next_u64() as i64 >> 20) as f64 / 1024.0,
        }),
        XsdType::String => Value::String(tricky_text(rng, 6)),
        XsdType::Base64Binary => {
            Value::Bytes((0..rng.below(9)).map(|_| rng.next_u64() as u8).collect())
        }
        XsdType::Array(item) => Value::Array(
            (0..rng.below(4))
                .map(|_| value_of(rng, item, schema))
                .collect(),
        ),
        XsdType::Complex(name) => match schema.get(name) {
            Some(complex) => {
                let mut fields = Vec::new();
                for field in &complex.fields {
                    if !(field.optional && rng.chance(1, 3)) {
                        fields.push((field.name.clone(), value_of(rng, &field.ty, schema)));
                    }
                }
                Value::Struct(fields)
            }
            None => Value::Struct(vec![(
                "whatever".into(),
                Value::String(tricky_text(rng, 3)),
            )]),
        },
        XsdType::AnyType => match rng.below(3) {
            0 => Value::String(tricky_text(rng, 4)),
            1 => Value::Array(vec![Value::string("a"), Value::string(tricky_text(rng, 2))]),
            _ => Value::Struct(vec![
                ("name".into(), Value::String(tricky_text(rng, 2))),
                ("item".into(), Value::string("not an array")),
            ]),
        },
    }
}

/// One invocation: a contract, the operation called, its arguments and
/// what the handler answers.
#[derive(Debug, Clone)]
struct Case {
    descriptor: ServiceDescriptor,
    operation: String,
    args: Vec<Value>,
    reply: Result<Value, Fault>,
}

struct Cases;

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut TestRng) -> Case {
        let schema = schema(rng);
        let mut descriptor = ServiceDescriptor::new("Typed", NAMESPACE).with_schema(schema);
        for name in ["first", "second", "third"] {
            let mut op = OperationDef::new(name);
            for param in ["a", "b", "c"].iter().take(rng.below(4) as usize) {
                let ty = any_type(rng, 2);
                op = match rng.chance(1, 3) {
                    true => op.optional_input(*param, ty),
                    false => op.input(*param, ty),
                };
            }
            // One operation in four is one-way.
            if !rng.chance(1, 4) {
                op = op.returns(any_type(rng, 2));
            }
            descriptor = descriptor.operation(op);
        }
        let op = &descriptor.operations[rng.below(3) as usize];
        // Trailing optional parameters may be left off the call.
        let mut sent = op.inputs.len();
        while sent > 0 && op.inputs[sent - 1].optional && rng.chance(1, 3) {
            sent -= 1;
        }
        let schema = &descriptor.schema;
        let args = (op.inputs[..sent].iter())
            .map(|param| value_of(rng, &param.ty, schema))
            .collect();
        let reply = match (&op.output, rng.chance(1, 6)) {
            (_, true) => Err(Fault::receiver(tricky_text(rng, 4))),
            (Some(output), false) => Ok(value_of(rng, &output.ty, schema)),
            (None, false) => Ok(Value::Null),
        };
        Case {
            operation: op.name.clone(),
            descriptor,
            args,
            reply,
        }
    }
}

// --- the two header sets ------------------------------------------------------

/// Which binding's headers a message travels under.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wire {
    Http,
    /// P2PS, with or without a propagated deadline leading the header.
    Pipes {
        deadline: bool,
    },
}

const WIRES: [Wire; 3] = [
    Wire::Http,
    Wire::Pipes { deadline: false },
    Wire::Pipes { deadline: true },
];

fn return_pipe() -> PipeAdvertisement {
    PipeAdvertisement::new(PeerId(0xBB), None, "return-7")
}

impl Wire {
    /// The blocks that lead a request's header, and its addressing.
    fn request_headers(self, operation: &str) -> (Vec<Element>, MessageHeaders) {
        match self {
            Wire::Http => {
                let action = format!("{ENDPOINT}#{operation}");
                (vec![], MessageHeaders::request(ENDPOINT, action))
            }
            Wire::Pipes { deadline } => {
                let target = PipeAdvertisement::new(PeerId(0xAA), Some("Typed".into()), operation);
                let budget = Element::build("", "wsp-deadline-ms").text("250").finish();
                let leading = if deadline { vec![budget] } else { vec![] };
                let headers = with_reply_pipe(request_headers(&target), &return_pipe());
                (leading, headers)
            }
        }
    }

    /// The headers the substrate re-addresses the response with.
    fn readdress(self, request: &MessageHeaders) -> Option<MessageHeaders> {
        match self {
            Wire::Http => None,
            Wire::Pipes { .. } => encode_response(request).map(|(_, headers)| headers),
        }
    }
}

/// `proxy::encode_request`'s envelope under `wire`'s headers — the
/// tree writer of a request — and those headers.
fn request_tree(case: &Case, wire: Wire) -> Result<(Envelope, MessageHeaders), String> {
    let (descriptor, operation) = (&case.descriptor, case.operation.as_str());
    let mut envelope = proxy::encode_request(descriptor, ENDPOINT, operation, &case.args)
        .map_err(|e| e.to_string())?;
    let (leading, headers) = wire.request_headers(operation);
    // Under HTTP the envelope's own headers are the ones to write:
    // only the generated `MessageID` could differ.
    let headers = match wire {
        Wire::Http => envelope.addressing().expect("addressed").clone(),
        Wire::Pipes { .. } => headers,
    };
    for block in leading {
        envelope.add_header(HeaderBlock::new(block));
    }
    envelope.set_addressing(headers.clone());
    Ok((envelope, headers))
}

/// The request of `case` under `wire` as the invokers stream it —
/// checked against the tree writer's bytes — and its headers.
fn request(case: &Case, wire: Wire) -> Result<(String, MessageHeaders), String> {
    let (envelope, headers) = request_tree(case, wire)?;
    let (leading, _) = wire.request_headers(&case.operation);
    let (descriptor, operation) = (&case.descriptor, case.operation.as_str());
    let mut out = Vec::new();
    proxy::write_request(
        descriptor, &leading, &headers, operation, &case.args, &mut out,
    )
    .map_err(|e| e.to_string())?;
    let typed = String::from_utf8(out).expect("UTF-8");
    assert_eq!(typed, envelope.to_xml(), "{wire:?} {case:?}");
    Ok((typed, headers))
}

/// The response the tree engine built for `case`'s outcome to a request
/// under `request`'s headers, re-addressed as the substrate does — the
/// byte reference of the engine's writer. No `MessageID`s.
fn response_tree(
    case: &Case,
    request: &MessageHeaders,
    readdress: Option<&MessageHeaders>,
) -> Option<String> {
    let op = case.descriptor.find_operation(&case.operation)?;
    if !op.expects_response() {
        return None;
    }
    let ns = case.descriptor.namespace.as_str();
    let mut envelope = match &case.reply {
        Ok(value) => Envelope::request(
            Element::build(ns.to_owned(), format!("{}Response", op.name))
                .child(value_element(ns, "return", value))
                .finish(),
        ),
        Err(fault) => Envelope::fault(fault.clone()),
    };
    // A substrate's headers replace the engine's.
    let action = format!("{ns}#{}Response", op.name);
    let own = MessageHeaders::response_to(request, action);
    envelope.set_addressing(readdress.cloned().unwrap_or(own));
    Some(without_message_ids(&envelope.to_xml()))
}

/// `xml` with the text of every `wsa:MessageID` blanked: each response
/// is given a fresh one.
fn without_message_ids(xml: &str) -> String {
    let mut out = String::new();
    let mut rest = xml;
    while let Some(at) = rest.find("<wsa:MessageID") {
        let open = at + rest[at..].find('>').expect("tag closes") + 1;
        let close = open
            + rest[open..]
                .find("</wsa:MessageID>")
                .expect("element closes");
        out.push_str(&rest[..open]);
        rest = &rest[close..];
    }
    out + rest
}

// --- what a reader makes of a value -------------------------------------------

/// What a reader makes of `value` written as `ty`: itself, but with a
/// struct of a schema type completed (an optional field left out reads
/// as `Null`) and — where no schema types it, as for the arguments the
/// server reads — a complex or `anyType` value as untyped text and
/// elements.
fn as_read(value: &Value, ty: &XsdType, schema: Option<&Schema>) -> Value {
    let complex = match ty {
        XsdType::Complex(name) => schema.and_then(|schema| schema.get(name)),
        _ => None,
    };
    match (value, ty, complex) {
        (Value::Null, _, _) => Value::Null,
        (Value::Array(items), XsdType::Array(item), _) => {
            Value::Array(items.iter().map(|v| as_read(v, item, schema)).collect())
        }
        (Value::Struct(fields), _, Some(complex)) => Value::Struct(
            (complex.fields.iter())
                .map(|field| {
                    let given = fields.iter().find(|(name, _)| *name == field.name);
                    let value = given.map_or(Value::Null, |(_, v)| as_read(v, &field.ty, schema));
                    (field.name.clone(), value)
                })
                .collect(),
        ),
        (_, XsdType::AnyType | XsdType::Complex(_), None) => untyped(value),
        (value, _, _) => value.clone(),
    }
}

/// `value` as a reader that knows no type reads it back.
fn untyped(value: &Value) -> Value {
    let children: Vec<(String, Value)> = match value {
        Value::Null => return Value::Null,
        Value::Array(items) => items.iter().map(|v| ("item".into(), untyped(v))).collect(),
        Value::Struct(fields) => fields
            .iter()
            .map(|(n, v)| (n.clone(), untyped(v)))
            .collect(),
        simple => return Value::String(value_element("", "v", simple).text()),
    };
    if children.is_empty() {
        Value::String(String::new())
    } else if children.iter().all(|(name, _)| name == "item") {
        Value::Array(children.into_iter().map(|(_, v)| v).collect())
    } else {
        Value::Struct(children)
    }
}

/// `Debug`, because a NaN is not equal to itself.
fn same<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

// --- reading what a document says ---------------------------------------------

/// A parsed element as DESIGN.md §11 says a reader takes it: the
/// envelope's processing attributes on a header block, `xml:lang` on a
/// fault's text, `URLType` (written from the access point) and
/// attributes left at their default (empty) carry nothing; neither do
/// the prefix of a fault code, the lexical form of a number, an element
/// marked `xsi:nil` (an optional member given as nil and one left out
/// are one `Null`; `read(write(v)) == v` checks where nils stand) or
/// the order of differently named children — nor of `shard`s, which
/// carry their ids. Layout and prefixes `parse` takes away itself.
#[derive(Debug, PartialEq)]
struct Canon {
    name: String,
    attributes: Vec<(String, String)>,
    text: String,
    children: Vec<Canon>,
}

fn canon(e: &Element) -> Canon {
    let meaningful = |a: &&wsp_xml::Attribute| {
        let name = &a.name;
        !(a.value.is_empty()
            || name.namespace() == SOAP_ENV_NS
            || name.is(XML_NS, "lang")
            || name.is("", "URLType"))
    };
    let number = |value: &str| match value.bytes().all(|b| b.is_ascii_digit()) {
        true if !value.is_empty() => value.trim_start_matches('0').to_owned(),
        _ => value.to_owned(),
    };
    let mut attributes: Vec<(String, String)> = (e.attributes().iter())
        .filter(meaningful)
        .map(|a| (format!("{:?}", a.name), number(&a.value)))
        .collect();
    attributes.sort();
    let nil = |c: &Element| (c.attributes().iter()).any(|a| a.name.local_name() == "nil");
    let mut text = String::new();
    let mut children = Vec::new();
    for node in e.children() {
        match node {
            Node::Text(run) | Node::CData(run) => text.push_str(run),
            Node::Element(child) if !nil(child) => children.push(canon(child)),
            _ => {}
        }
    }
    if e.name().is(SOAP_ENV_NS, "Value") {
        text = text
            .rsplit(':')
            .next()
            .unwrap_or_default()
            .trim()
            .to_owned();
    }
    let key = |c: &Canon| {
        let id = c.attributes.iter().find(|(name, _)| name == "id");
        let shard = c.name == format!("{{{REGISTRY_NS}}}shard");
        (
            c.name.clone(),
            id.filter(|_| shard).map(|(_, id)| id.clone()),
        )
    };
    children.sort_by_key(key);
    Canon {
        name: format!("{:?}", e.name()),
        attributes,
        text,
        children,
    }
}

/// The canonical `Header` of an envelope, or its `Body`'s first child.
fn part(xml: &str, local: &str) -> Option<Canon> {
    let envelope = wsp_xml::parse(xml).expect("a reader took it: it parses");
    let child = envelope.find(SOAP_ENV_NS, local)?;
    match local {
        "Body" => child.child_elements().next().map(canon),
        _ => Some(canon(child)),
    }
}

/// `body` as the body of `xml` would be, canonical.
fn body_of(body: &Element) -> Option<Canon> {
    Some(canon(&wsp_xml::parse(&body.to_xml()).expect("written")))
}

/// `Envelope::from_xml` is the view [`read_envelope`] reads: it takes
/// what the reader takes — with the same addressing, the other blocks
/// shown to `foreign`, the same fault or the payload as `parse` builds
/// it — and refuses the rest with the reader's error or fault.
fn view_alike(xml: &str) {
    let mut blocks = Vec::new();
    let mut foreign = |block: &HeaderBlock| blocks.push(block.clone());
    let read = read_envelope(xml, &mut foreign, |payload| {
        Ok(match payload {
            Payload::Empty => Body::Empty,
            Payload::Fault(fault) => Body::Fault(fault),
            // Passed over here: the view's is checked against `parse`.
            Payload::Element(_) => Body::Payload(Element::new("", "unread")),
        })
    });
    let view = Envelope::from_xml(xml);
    let (addressing, body) = match read {
        Err(e) => return assert_eq!(view, Err(e), "{xml}"),
        Ok((_, Err(fault))) => return assert_eq!(view, Err(SoapError::Fault(fault)), "{xml}"),
        Ok((addressing, Ok(body))) => (addressing, body),
    };
    let view = view.unwrap_or_else(|e| panic!("the reader took it, the view did not: {e}: {xml}"));
    assert_eq!(view.addressing().cloned().unwrap_or_default(), addressing);
    assert_eq!(view.headers(), &blocks[..], "{xml}");
    match body {
        Body::Payload(_) => {
            let tree = wsp_xml::parse(xml).expect("the reader took it: it parses");
            let first = (tree.find(SOAP_ENV_NS, "Body")).and_then(|b| b.child_elements().next());
            assert_eq!(view.payload(), first, "{xml}");
        }
        body => assert_eq!(view.body(), &body, "{xml}"),
    }
}

/// Where the envelope reader takes `xml` whole, the header it read —
/// addressing and blocks — written back is the document's.
fn frame_read_alike(xml: &str) {
    let mut blocks = Vec::new();
    let mut foreign = |block: &HeaderBlock| blocks.push(block.element.clone());
    let Ok((headers, Ok(()))) = read_envelope(xml, &mut foreign, |_| Ok(())) else {
        return;
    };
    let mut out = Vec::new();
    write_envelope(&mut out, &blocks, &headers, |_| {});
    let written = String::from_utf8(out).expect("UTF-8");
    assert_eq!(part(&written, "Header"), part(xml, "Header"), "{xml}");
}

// --- the server -----------------------------------------------------------------

/// What the engine made of one request document.
#[derive(Debug)]
struct Served {
    headers: MessageHeaders,
    /// The header blocks shown to `foreign`.
    blocks: Vec<HeaderBlock>,
    /// The handler's call, if it was called.
    call: Option<(String, Vec<Value>)>,
    /// The response, `MessageID`s blanked; none for a one-way call.
    response: Option<String>,
}

impl Served {
    /// The fault the engine refused the request with, if it did.
    fn refusal(&self) -> Option<Fault> {
        if self.call.is_some() {
            return None;
        }
        let response = self.response.as_deref()?;
        let read = read_envelope(response, &mut |_| {}, |payload| match payload {
            Payload::Fault(fault) => Ok(Some(fault)),
            _ => Ok(None),
        });
        read.ok()?.1.ok()?
    }

    /// The rule the engine refused the request by, if it did.
    fn rule(&self) -> Option<Rule> {
        self.refusal().and_then(|fault| Rule::of(&fault))
    }
}

/// Serve `xml` with an engine whose handler answers `case.reply`; where
/// the engine takes the request, the call it read written back is the
/// document.
fn served_alike(case: &Case, wire: Wire, xml: &str) -> Result<Served, SoapError> {
    view_alike(xml);
    let calls = Arc::new(Mutex::new(Vec::new()));
    let (log, reply) = (calls.clone(), case.reply.clone());
    let handler = move |op: &str, args: &[Value]| {
        log.lock().push((op.to_owned(), args.to_vec()));
        reply.clone()
    };
    let engine = MessageEngine::new(case.descriptor.clone(), Arc::new(handler));
    let mut blocks = Vec::new();
    let request = engine.read_request(xml, &mut |block| blocks.push(block.clone()))?;
    assert!(calls.lock().is_empty(), "the reader called the handler");
    let readdress = wire.readdress(&request.headers);
    let mut out = Vec::new();
    let fault = engine.answer(&request, readdress.as_ref(), &mut out);
    let response = fault.map(|fault| {
        let xml = String::from_utf8(out).expect("UTF-8");
        assert_eq!(fault, xml.contains("<env:Fault>"), "{xml}");
        without_message_ids(&xml)
    });
    let mut calls = std::mem::take(&mut *calls.lock());
    assert!(calls.len() <= 1, "{calls:?}");
    let call = calls.pop();
    if let Some((operation, args)) = &call {
        frame_read_alike(xml);
        let body = call_element(&case.descriptor, operation, args);
        assert_eq!(body_of(&body), part(xml, "Body"), "{xml}");
    }
    Ok(Served {
        headers: request.headers,
        blocks,
        call,
        response,
    })
}

/// The operation element of a call, as the invokers write it.
fn call_element(descriptor: &ServiceDescriptor, operation: &str, args: &[Value]) -> Element {
    let ns = descriptor.namespace.as_str();
    let op = descriptor.find_operation(operation).expect("called");
    let mut element = Element::new(ns.to_owned(), operation.to_owned());
    for (param, arg) in op.inputs.iter().zip(args) {
        if !(param.optional && *arg == Value::Null) {
            element.push_element(value_element(ns, &param.name, arg));
        }
    }
    element
}

/// What the client reads of the response `xml`; where it takes the
/// outcome, the outcome written back is the document's body.
fn decoded_alike(case: &Case, xml: &str) -> Result<Value, ProxyError> {
    view_alike(xml);
    let (descriptor, operation) = (&case.descriptor, case.operation.as_str());
    let read = proxy::read_response(descriptor, operation, xml);
    let ns = descriptor.namespace.as_str();
    let body = match &read {
        Ok(value) => Element::build(ns.to_owned(), format!("{operation}Response"))
            .child(value_element(ns, "return", value))
            .finish(),
        Err(ProxyError::Fault(fault)) => fault.to_element(),
        Err(_) => return read,
    };
    frame_read_alike(xml);
    assert_eq!(body_of(&body), part(xml, "Body"), "{xml}");
    read
}

/// Every document that differs from `xml` by a cut at a character
/// boundary, or by one character overwritten there.
fn damaged(xml: &str) -> impl Iterator<Item = String> + '_ {
    let boundaries = (0..xml.len()).filter(|&at| xml.is_char_boundary(at));
    boundaries.flat_map(move |at| {
        let next = at + xml[at..].chars().next().map_or(0, char::len_utf8);
        let overwritten = |with: &str| format!("{}{with}{}", &xml[..at], &xml[next..]);
        let cut = xml[..at].to_owned();
        [cut, overwritten("<"), overwritten("&"), overwritten("x")]
    })
}

// --- properties -----------------------------------------------------------------

/// Whole messages: the bytes are the tree writer's; the request is read
/// as the call written, under the headers written, the blocks shown
/// once; the response is the tree engine's bytes and reads as the
/// outcome.
#[test]
fn whole_messages_are_written_and_read_alike() {
    let mut rng = TestRng::for_test("typed_codec::whole_messages");
    for _ in 0..256 {
        let case = Cases.generate(&mut rng);
        let op = case
            .descriptor
            .find_operation(&case.operation)
            .expect("its own");
        let args: Vec<Value> = (op.inputs.iter().enumerate())
            .map(|(at, param)| {
                let sent = case.args.get(at);
                sent.map_or(Value::Null, |v| as_read(v, &param.ty, None))
            })
            .collect();
        for wire in WIRES {
            let Ok((request, headers)) = request(&case, wire) else {
                continue;
            };
            let served = served_alike(&case, wire, &request).expect("an envelope");
            let call = Some((case.operation.clone(), args.clone()));
            assert!(same(&served.call, &call), "{served:?} {case:?}");
            let mut sent = headers.clone();
            sent.destination_properties.clear();
            assert_eq!(served.headers, sent);
            let (leading, _) = wire.request_headers(&case.operation);
            let shown: Vec<Element> = served.blocks.iter().map(|b| b.element.clone()).collect();
            assert_eq!(shown, [leading, headers.destination_properties].concat());

            let readdress = wire.readdress(&served.headers);
            let expected = response_tree(&case, &served.headers, readdress.as_ref());
            assert_eq!(served.response, expected, "{wire:?} {case:?}");
            let (Some(response), Some(output)) = (&served.response, &op.output) else {
                continue;
            };
            let schema = Some(&case.descriptor.schema);
            let outcome = (case.reply.as_ref())
                .map(|value| as_read(value, &output.ty, schema))
                .map_err(|fault| ProxyError::Fault(Box::new(fault.clone())));
            let decoded = decoded_alike(&case, response);
            assert!(same(&decoded, &outcome), "{decoded:?} from {response}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cut or damaged at every offset, a request and its response are
    /// refused, or read as what they say — never as something else.
    #[test]
    fn damaged_messages_are_declined_or_read_alike(case in Cases, pick in 0usize..3) {
        let wire = WIRES[pick];
        let Ok((request, _)) = request(&case, wire) else { continue };
        for document in damaged(&request) {
            let _ = served_alike(&case, wire, &document);
            frame_read_alike(&document);
        }
        let served = served_alike(&case, wire, &request).expect("canonical");
        for document in damaged(&served.response.unwrap_or_default()) {
            let _ = decoded_alike(&case, &document);
            frame_read_alike(&document);
        }
    }

    /// Shapes by name. Each is served as the tree path served it, or
    /// refused as it refused it, or refused by the §11 rule named here
    /// where the tree decoder applied a private rule of its own.
    #[test]
    fn shapes_outside_the_typed_readers_are_declined(case in Cases, pick in 0usize..3) {
        let wire = WIRES[pick];
        let Ok((request, _)) = request_tree(&case, wire) else { continue };
        let canonical = served_alike(&case, wire, &request.to_xml()).expect("canonical");
        let variant = |edit: &dyn Fn(&mut Element)| {
            let mut payload = request.payload().expect("a request").clone();
            edit(&mut payload);
            let mut variant = Envelope::request(payload);
            request.headers().iter().for_each(|block| variant.add_header(block.clone()));
            variant.set_addressing(request.addressing().cloned().unwrap_or_default());
            served_alike(&case, wire, &variant.to_xml()).expect("an envelope")
        };
        let op = case.descriptor.find_operation(&case.operation).expect("its own");
        let parameters = request.payload().expect("a request").children().len();
        if parameters >= 2 {
            // Another order: read, as the tree read it.
            let reordered = variant(&|payload| payload.children_mut().reverse());
            prop_assert!(same(&reordered.call, &canonical.call), "{reordered:?}");
        }
        if parameters >= 1 {
            // The tree read the first of two.
            let repeated = variant(&|payload| {
                let first = payload.children()[0].clone();
                payload.children_mut().push(first);
            });
            prop_assert_eq!(repeated.rule(), Some(Rule::Repeated));
            // The tree read it whatever its namespace.
            let elsewhere = variant(&|payload| {
                let first = payload.child_elements().next().expect("a parameter");
                let name = first.name().local_name().to_owned();
                payload.children_mut()[0] = Node::Element(Element::new("urn:elsewhere", name));
            });
            prop_assert_eq!(elsewhere.rule(), Some(Rule::UnknownElement));
        }
        if let Some(at) = op.inputs.iter().take(parameters).position(|p| !p.optional) {
            // Faulted alike.
            let missing = variant(&|payload| drop(payload.children_mut().remove(at)));
            let fault = missing.refusal().expect("refused");
            prop_assert!(fault.reason.starts_with("missing required argument"), "{}", fault);
        }
        // The tree passed over a parameter the operation does not have,
        // and an attribute on the wrapper.
        let stranger = variant(&|payload| payload.push_element(Element::new(NAMESPACE, "zz")));
        prop_assert_eq!(stranger.rule(), Some(Rule::UnknownElement));
        let attributed = variant(&|payload| payload.set_attribute(QName::local("id"), "w"));
        prop_assert_eq!(attributed.rule(), Some(Rule::UnknownAttribute));

        // Faulted alike: a block nobody here reads marked mandatory, an
        // operation the service does not have, an empty body.
        let mut mandatory = request.clone();
        mandatory.add_header(HeaderBlock::mandatory(Element::new("urn:strange", "Security")));
        let served = served_alike(&case, wire, &mandatory.to_xml()).expect("an envelope");
        let fault = served.refusal().expect("a fault, the handler not called");
        prop_assert_eq!(fault.code, FaultCode::MustUnderstand);
        let unknown = variant(&|payload| *payload = Element::new(NAMESPACE, "nope"));
        let subcode = unknown.refusal().and_then(|fault| fault.subcode);
        prop_assert_eq!(subcode.map(|s| s.local_name().to_owned()).as_deref(), Some("NoSuchOperation"));
        let mut empty = Envelope::empty();
        request.headers().iter().for_each(|block| empty.add_header(block.clone()));
        empty.set_addressing(request.addressing().cloned().unwrap_or_default());
        let served = served_alike(&case, wire, &empty.to_xml()).expect("an envelope");
        let fault = served.refusal().expect("a fault");
        prop_assert!(fault.reason.contains("carries no operation"), "{}", fault);
        // Refused alike: SOAP 1.1.
        let soap11 = request.to_xml().replace(SOAP_ENV_NS, "http://schemas.xmlsoap.org/soap/envelope/");
        let refused = served_alike(&case, wire, &soap11).unwrap_err();
        prop_assert!(matches!(refused, SoapError::VersionMismatch { .. }), "{refused}");

        // Layout is not shape: indented, the request is the same call.
        let pretty = request.to_element().to_pretty_xml();
        let indented = served_alike(&case, wire, &pretty).expect("an envelope");
        prop_assert!(same(&indented.call, &canonical.call), "{pretty}");
    }
}

/// The shapes the typed codec was built for, spelled out: each is
/// served, read as written, and answered with what the client reads as
/// the outcome.
#[test]
fn the_named_shapes_are_served_typed() {
    let array_of = |ty| XsdType::Array(Box::new(ty));
    let mut schema = Schema::new();
    schema.define(
        "Frame",
        ComplexType::new(vec![
            FieldDef::new("step", XsdType::Int),
            FieldDef::optional("label", XsdType::String),
        ]),
    );
    let descriptor = ServiceDescriptor::new("Typed", NAMESPACE)
        .with_schema(schema)
        .operation(
            OperationDef::new("everything")
                .input("flag", XsdType::Boolean)
                .input("count", XsdType::Int)
                .input("big", XsdType::Long)
                .input("ratio", XsdType::Double)
                .input("text", XsdType::String)
                .input("blob", XsdType::Base64Binary)
                .input("grid", array_of(array_of(XsdType::Int)))
                .input("frame", XsdType::Complex("Frame".into()))
                .input("loose", XsdType::AnyType)
                .optional_input("hint", XsdType::String)
                .returns(XsdType::Complex("Frame".into())),
        )
        .operation(
            OperationDef::new("notify")
                .input("line", XsdType::String)
                .one_way(),
        );
    let frame = |label: Value| {
        Value::Struct(vec![
            ("step".into(), Value::Int(7)),
            ("label".into(), label),
        ])
    };
    let everything = vec![
        Value::Bool(true),
        Value::Int(-3),
        Value::Int(i64::MAX),
        Value::Double(f64::NEG_INFINITY),
        Value::string("<![CDATA[ & ]]> é"),
        Value::Bytes(vec![0, 255, 7]),
        Value::Array(vec![
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
            Value::Array(vec![]),
        ]),
        frame(Value::string("t=0.7")),
        // Untyped, a struct of `item`s is an array.
        Value::Struct(vec![
            ("item".into(), Value::string("x")),
            ("item".into(), Value::string("y")),
        ]),
    ];
    let calls = [
        ("everything", everything.clone(), Ok(frame(Value::Null))),
        (
            "everything",
            [everything.clone(), vec![Value::Null]].concat(),
            Ok(Value::Null),
        ),
        (
            "everything",
            vec![Value::Null; 9],
            Err(Fault::receiver("backend down")),
        ),
        ("notify", vec![Value::string("one way")], Ok(Value::Null)),
    ];
    for (operation, args, reply) in calls {
        let case = Case {
            descriptor: descriptor.clone(),
            operation: operation.into(),
            args,
            reply,
        };
        let op = descriptor.find_operation(operation).expect("declared");
        let args: Vec<Value> = (op.inputs.iter().enumerate())
            .map(|(at, p)| {
                case.args
                    .get(at)
                    .map_or(Value::Null, |v| as_read(v, &p.ty, None))
            })
            .collect();
        for wire in WIRES {
            let (request, _) = request(&case, wire).expect("valid call");
            let served = served_alike(&case, wire, &request).expect("an envelope");
            let call = Some((operation.to_owned(), args.clone()));
            assert!(same(&served.call, &call), "{wire:?} {served:?}");
            assert_eq!(served.response.is_some(), operation != "notify");
            let Some(response) = served.response else {
                continue;
            };
            let decoded = decoded_alike(&case, &response);
            let outcome = (case.reply.clone()).map_err(|fault| ProxyError::Fault(Box::new(fault)));
            assert_eq!(decoded, outcome, "{response}");
        }
    }
}

// --- the registry vocabulary ------------------------------------------------------

fn keyed_reference(rng: &mut TestRng) -> KeyedReference {
    KeyedReference::new(
        tricky_text(rng, 3),
        tricky_text(rng, 2),
        tricky_text(rng, 3),
    )
}

fn list<T>(rng: &mut TestRng, item: impl Fn(&mut TestRng) -> T) -> Vec<T> {
    (0..rng.below(4)).map(|_| item(rng)).collect()
}

/// A number as the registry's documents carry them: small, or anywhere
/// in the range.
fn number(rng: &mut TestRng) -> u64 {
    rng.next_u64() >> rng.below(65).min(63)
}

fn record(rng: &mut TestRng) -> BusinessService {
    let mut record = BusinessService::new(
        tricky_text(rng, 3),
        tricky_text(rng, 2),
        tricky_text(rng, 4),
    );
    if rng.chance(1, 2) {
        record.description = Some(tricky_text(rng, 5));
    }
    record.categories = list(rng, keyed_reference);
    record.bindings = list(rng, |rng| {
        let scheme = [
            "http://h:8080/",
            "https://h/",
            "httpg://h/",
            "p2ps://00bb/",
            "",
        ];
        let scheme = scheme[rng.below(5) as usize];
        let access_point = format!("{scheme}{}", tricky_text(rng, 3));
        let mut binding = BindingTemplate::new(tricky_text(rng, 2), access_point);
        binding.tmodel_keys = list(rng, |rng| tricky_text(rng, 2));
        binding
    });
    if rng.chance(1, 2) {
        record.lease_ttl_ms = Some(number(rng));
    }
    record
}

fn tmodel(rng: &mut TestRng) -> TModel {
    let tmodel = TModel::new(tricky_text(rng, 3), tricky_text(rng, 3));
    match rng.chance(1, 2) {
        true => tmodel.with_overview(tricky_text(rng, 3)),
        false => tmodel,
    }
}

fn entity(rng: &mut TestRng) -> BusinessEntity {
    let mut entity = BusinessEntity::new(tricky_text(rng, 3), tricky_text(rng, 3));
    if rng.chance(1, 2) {
        entity.description = Some(tricky_text(rng, 4));
    }
    entity
}

fn query(rng: &mut TestRng) -> ServiceQuery {
    ServiceQuery {
        name_pattern: rng.chance(3, 4).then(|| tricky_text(rng, 3)),
        categories: list(rng, keyed_reference),
        max_rows: match rng.below(3) {
            0 => 0,
            1 => rng.below(10) as usize,
            _ => number(rng) as usize,
        },
    }
}

fn shard_map(rng: &mut TestRng) -> Element {
    let nodes = (0..1 + rng.below(4)).map(|n| format!("wsp://registry/{n}"));
    ShardMap::build(nodes.collect(), 1 + rng.below(4) as u32, 3, number(rng)).to_element()
}

/// Any registry request: every operation, stamped or not.
struct Requests;

impl Strategy for Requests {
    type Value = UddiRequest<'static>;

    fn generate(&self, rng: &mut TestRng) -> UddiRequest<'static> {
        let keys = |rng: &mut TestRng| Cow::Owned(list(rng, |rng| tricky_text(rng, 3)));
        let op = match rng.below(11) {
            0 => UddiOp::FindService(Cow::Owned(query(rng))),
            1 => UddiOp::FindServiceDetail(Cow::Owned(query(rng))),
            2 => UddiOp::GetServiceDetail(keys(rng)),
            3 => UddiOp::SaveService {
                tmodels: Cow::Owned(list(rng, tmodel)),
                services: Cow::Owned(list(rng, record)),
            },
            4 => UddiOp::SaveTModel(Cow::Owned(list(rng, tmodel))),
            5 => UddiOp::GetTModelDetail(keys(rng)),
            6 => UddiOp::DeleteService(keys(rng)),
            7 => UddiOp::SaveBusiness(Cow::Owned(list(rng, entity))),
            8 => UddiOp::FindBusiness(Cow::Owned(tricky_text(rng, 3))),
            9 => UddiOp::GetShardMap,
            _ => UddiOp::GetDataVersions,
        };
        let map_epoch = rng.chance(1, 2).then(|| number(rng));
        UddiRequest { op, map_epoch }
    }
}

/// Any registry answer, a fault carrying the shard map among them.
struct Responses;

impl Strategy for Responses {
    type Value = UddiResponse;

    fn generate(&self, rng: &mut TestRng) -> UddiResponse {
        match rng.below(9) {
            0 => UddiResponse::ServiceList(list(rng, |rng| ServiceInfo {
                key: tricky_text(rng, 3),
                name: tricky_text(rng, 3),
                business_key: tricky_text(rng, 2),
            })),
            1 => UddiResponse::ServiceDetail(list(rng, record)),
            2 => UddiResponse::TModelDetail(list(rng, tmodel)),
            3 => UddiResponse::BusinessDetail(list(rng, entity)),
            4 => UddiResponse::BusinessList(list(rng, |rng| {
                (tricky_text(rng, 3), tricky_text(rng, 3))
            })),
            5 => UddiResponse::Disposition {
                deleted: number(rng) as usize,
            },
            6 => UddiResponse::DataVersions(DataVersions {
                epoch: number(rng),
                versions: list(rng, number),
            }),
            7 => UddiResponse::Other(shard_map(rng)),
            _ => {
                let reason = tricky_text(rng, 4);
                let fault = match rng.chance(1, 2) {
                    true => Fault::sender(reason),
                    false => Fault::receiver(reason),
                };
                UddiResponse::Fault(fault.with_detail(shard_map(rng)))
            }
        }
    }
}

/// The tree writer's `request`: the document the registry client used
/// to build, the model's trees under the operation's element.
fn registry_request_tree(request: &UddiRequest<'_>) -> Element {
    let (ns, local) = request.op.name();
    let mut e = match &request.op {
        UddiOp::FindService(query) | UddiOp::FindServiceDetail(query) => query.to_request(local),
        _ => Element::new(ns, local),
    };
    let text = |local: &'static str, value: &str| {
        Element::build(UDDI_NS, local)
            .text(value.to_owned())
            .finish()
    };
    let children: Vec<Element> = match &request.op {
        UddiOp::GetServiceDetail(keys) | UddiOp::DeleteService(keys) => {
            keys.iter().map(|key| text("serviceKey", key)).collect()
        }
        UddiOp::GetTModelDetail(keys) => keys.iter().map(|key| text("tModelKey", key)).collect(),
        UddiOp::SaveService { tmodels, services } => (tmodels.iter().map(TModel::to_element))
            .chain(services.iter().map(BusinessService::to_element))
            .collect(),
        UddiOp::SaveTModel(tmodels) => tmodels.iter().map(TModel::to_element).collect(),
        UddiOp::SaveBusiness(entities) => entities.iter().map(BusinessEntity::to_element).collect(),
        UddiOp::FindBusiness(pattern) => vec![text("name", pattern)],
        _ => Vec::new(),
    };
    children.into_iter().for_each(|child| e.push_element(child));
    if let Some(epoch) = request.map_epoch {
        e.set_attribute(QName::local("mapEpoch"), epoch.to_string());
    }
    e
}

/// The tree writer's `response`: the envelope the registries used to
/// build.
fn registry_response_tree(response: &UddiResponse) -> Envelope {
    let detail = |local: &'static str, children: Vec<Element>| {
        Element::build(UDDI_NS, local).children(children).finish()
    };
    let list = |local: &'static str, infos: &'static str, children: Vec<Element>| {
        Element::build(UDDI_NS, local)
            .child(detail(infos, children))
            .finish()
    };
    let named = |local: &'static str, keys: &[(&'static str, &str)], name: &str| {
        let mut e = Element::new(UDDI_NS, local);
        for (attribute, value) in keys {
            e.set_attribute(QName::local(*attribute), value.to_string());
        }
        e.push_element(
            Element::build(UDDI_NS, "name")
                .text(name.to_owned())
                .finish(),
        );
        e
    };
    let payload = match response {
        UddiResponse::ServiceList(infos) => list(
            "serviceList",
            "serviceInfos",
            (infos.iter())
                .map(|info| {
                    let keys = [
                        ("serviceKey", info.key.as_str()),
                        ("businessKey", &info.business_key),
                    ];
                    named("serviceInfo", &keys, &info.name)
                })
                .collect(),
        ),
        UddiResponse::ServiceDetail(services) => detail(
            "serviceDetail",
            services.iter().map(BusinessService::to_element).collect(),
        ),
        UddiResponse::TModelDetail(tmodels) => detail(
            "tModelDetail",
            tmodels.iter().map(TModel::to_element).collect(),
        ),
        UddiResponse::BusinessDetail(entities) => detail(
            "businessDetail",
            entities.iter().map(BusinessEntity::to_element).collect(),
        ),
        UddiResponse::BusinessList(found) => list(
            "businessList",
            "businessInfos",
            (found.iter())
                .map(|(key, name)| named("businessInfo", &[("businessKey", key)], name))
                .collect(),
        ),
        UddiResponse::Disposition { deleted } => Element::build(UDDI_NS, "dispositionReport")
            .attr_str("deleted", deleted.to_string())
            .finish(),
        UddiResponse::DataVersions(versions) => {
            let mut root = Element::build(REGISTRY_NS, "dataVersions")
                .attr_str("epoch", versions.epoch.to_string())
                .finish();
            for (shard, version) in versions.versions.iter().enumerate() {
                root.push_element(
                    Element::build(REGISTRY_NS, "shard")
                        .attr_str("id", shard.to_string())
                        .attr_str("version", version.to_string())
                        .finish(),
                );
            }
            root
        }
        UddiResponse::Other(payload) => payload.clone(),
        UddiResponse::Fault(fault) => return Envelope::fault(fault.clone()),
    };
    Envelope::request(payload)
}

/// `request` streamed, checked against the tree writer's bytes.
fn registry_request_xml(request: &UddiRequest<'_>) -> String {
    let mut out = Vec::new();
    write_request(request, &mut out);
    let typed = String::from_utf8(out).expect("UTF-8");
    let tree = Envelope::request(registry_request_tree(request)).to_xml();
    assert_eq!(typed, tree, "{request:?}");
    typed
}

/// `response` streamed, checked against the tree writer's bytes.
fn registry_response_xml(response: &UddiResponse) -> String {
    let mut out = Vec::new();
    write_response(response, &mut out);
    let typed = String::from_utf8(out).expect("UTF-8");
    assert_eq!(
        typed,
        registry_response_tree(response).to_xml(),
        "{response:?}"
    );
    typed
}

/// What a registry reader made of a document.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// Read — as what it says: written back, the body is the document's.
    Read,
    /// Refused by a §11 rule.
    Rule(Rule),
    /// Refused as the registry always refused it.
    Refused(String),
    /// Not a SOAP envelope (a registry answers it with a 400).
    NotSoap,
}

/// The rule a refusal's reason names: its first word.
fn rule_named(reason: &str) -> Option<Rule> {
    let rules = [
        Rule::Repeated,
        Rule::UnknownElement,
        Rule::UnknownAttribute,
        Rule::StrayText,
        Rule::Missing,
        Rule::BadValue,
    ];
    let named = |rule: &Rule| reason.starts_with(&format!("{rule:?}: "));
    rules.into_iter().find(named)
}

fn request_verdict(xml: &str) -> Verdict {
    view_alike(xml);
    match read_request(xml) {
        None => Verdict::NotSoap,
        Some(Ok(request)) => {
            let mut out = Vec::new();
            write_request(&request, &mut out);
            let written = String::from_utf8(out).expect("UTF-8");
            assert_eq!(part(&written, "Body"), part(xml, "Body"), "{xml}");
            Verdict::Read
        }
        Some(Err(fault)) => Rule::of(&fault).map_or(Verdict::Refused(fault.reason), Verdict::Rule),
    }
}

fn response_verdict(xml: &str) -> Verdict {
    view_alike(xml);
    match read_response(xml) {
        Ok(response) => {
            let mut out = Vec::new();
            write_response(&response, &mut out);
            let written = String::from_utf8(out).expect("UTF-8");
            assert_eq!(part(&written, "Body"), part(xml, "Body"), "{xml}");
            Verdict::Read
        }
        Err(reason) => rule_named(&reason).map_or(Verdict::Refused(reason), Verdict::Rule),
    }
}

/// Read, or refused by one of `rules`.
fn read_or(verdict: Verdict, rules: &[Rule]) -> Result<(), String> {
    match verdict {
        Verdict::Read => Ok(()),
        Verdict::Rule(rule) if rules.contains(&rule) => Ok(()),
        other => Err(format!("{other:?}, not one of {rules:?}")),
    }
}

/// `payload` with `edit` applied to its `n`-th element in document
/// order; `None` past the last.
fn edited(payload: &Element, n: usize, edit: &dyn Fn(&mut Element)) -> Option<Element> {
    fn walk(e: &mut Element, n: &mut usize, edit: &dyn Fn(&mut Element)) -> bool {
        if *n == 0 {
            edit(e);
            return true;
        }
        *n -= 1;
        e.children_mut().iter_mut().any(|child| match child {
            Node::Element(child) => walk(child, n, edit),
            _ => false,
        })
    }
    let mut payload = payload.clone();
    walk(&mut payload, &mut { n }, edit).then_some(payload)
}

/// Every text and attribute value under `e` with a mark appended.
fn marked(e: &mut Element) {
    e.attributes_mut()
        .iter_mut()
        .for_each(|a| a.value.push('1'));
    for child in e.children_mut() {
        match child {
            Node::Element(child) => marked(child),
            Node::Text(text) => text.push('1'),
            _ => {}
        }
    }
    if e.children().is_empty() {
        e.push_text("1");
    }
}

/// Every child list and attribute list under `e` reversed.
fn reversed(e: &mut Element) {
    e.children_mut().reverse();
    e.attributes_mut().reverse();
    for child in e.children_mut() {
        if let Node::Element(child) = child {
            reversed(child);
        }
    }
}

/// Writers: the bytes are the tree writer's for every request and
/// answer. Readers: every request and every answer — a fault, the shard
/// map — read as the value written, and as what the document says.
#[test]
fn registry_documents_are_written_and_read_alike() {
    let mut rng = TestRng::for_test("typed_codec::registry_documents");
    for _ in 0..256 {
        let request = Requests.generate(&mut rng);
        let xml = registry_request_xml(&request);
        assert_eq!(read_request(&xml), Some(Ok(request)), "{xml}");
        assert_eq!(request_verdict(&xml), Verdict::Read);

        let response = Responses.generate(&mut rng);
        let xml = registry_response_xml(&response);
        assert_eq!(read_response(&xml), Ok(response), "{xml}");
        assert_eq!(response_verdict(&xml), Verdict::Read);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cut or damaged at every offset, a request and an answer are
    /// refused, or read as what they say — never as something else.
    #[test]
    fn damaged_registry_documents_are_declined_or_read_alike(
        request in Requests,
        response in Responses,
    ) {
        for document in damaged(&registry_request_xml(&request)) {
            request_verdict(&document);
        }
        for document in damaged(&registry_response_xml(&response)) {
            response_verdict(&document);
        }
    }

    /// Shapes by name. Children and attributes in another order and
    /// layout are not shape: read. Where the tree decoders applied a
    /// private rule — an attribute or child they ignored, the first of
    /// two children, an entry without a required attribute skipped — the
    /// document is read as what it says or refused by that rule. An
    /// unknown operation, an empty body, SOAP 1.1: refused as before.
    #[test]
    fn registry_shapes_outside_the_typed_readers_are_declined(
        request in Requests,
        response in Responses,
    ) {
        let request_payload = registry_request_tree(&request);
        let response_payload = match registry_response_tree(&response).body() {
            Body::Payload(payload) => payload.clone(),
            Body::Fault(fault) => fault.to_element(),
            Body::Empty => unreachable!("every answer has a body"),
        };
        let of_request = |payload: Element| request_verdict(&Envelope::request(payload).to_xml());
        let of_response = |payload: Element| response_verdict(&Envelope::request(payload).to_xml());

        let mut backwards = request_payload.clone();
        reversed(&mut backwards);
        prop_assert_eq!(of_request(backwards), Verdict::Read, "{:?}", request);
        let pretty = Envelope::request(request_payload.clone()).to_element().to_pretty_xml();
        prop_assert_eq!(read_request(&pretty), Some(Ok(request.clone())));
        let mut backwards = response_payload.clone();
        reversed(&mut backwards);
        prop_assert_eq!(of_response(backwards), Verdict::Read, "{:?}", response);

        let foreign_attribute = |e: &mut Element| e.set_attribute(QName::new("urn:f", "x"), "1");
        let plain_attribute = |e: &mut Element| e.set_attribute(QName::local("extra"), "1");
        let foreign_child = |e: &mut Element| e.push_element(Element::new(UDDI_NS, "extra"));
        // The `k`-th child element repeated at the end, its text and
        // attribute values changed: which of the two a reader takes shows.
        let repeated = |k: usize| {
            move |e: &mut Element| {
                let mut child = e.child_elements().nth(k).cloned();
                child.iter_mut().for_each(marked);
                child.into_iter().for_each(|child| e.push_element(child));
            }
        };
        // The `k`-th attribute left out.
        let dropped = |k: usize| {
            move |e: &mut Element| {
                if k < e.attributes().len() {
                    e.attributes_mut().remove(k);
                }
            }
        };
        let attributes = [Rule::UnknownAttribute];
        // A second `Detail` child is repeated rather than unknown.
        let children = [Rule::UnknownElement, Rule::Repeated];
        // A repeated entry is marked: a number of it may overflow or
        // name a shard twice, an element of it that holds nothing gain
        // text.
        let repeats = [Rule::Repeated, Rule::BadValue, Rule::StrayText];
        let (payloads, verdicts): ([&Element; 2], [&dyn Fn(Element) -> Verdict; 2]) =
            ([&request_payload, &response_payload], [&of_request, &of_response]);
        for (payload, verdict) in payloads.into_iter().zip(verdicts) {
            for n in 0.. {
                let Some(variant) = edited(payload, n, &foreign_attribute) else { break };
                let edit = |edit: &dyn Fn(&mut Element)| {
                    verdict(edited(payload, n, edit).expect("as many"))
                };
                read_or(verdict(variant), &attributes).map_err(|e| format!("#{n}: {e}")).unwrap();
                read_or(edit(&plain_attribute), &attributes).unwrap();
                read_or(edit(&foreign_child), &children).unwrap();
                for k in 0..8 {
                    read_or(edit(&repeated(k)), &repeats).unwrap();
                    read_or(edit(&dropped(k)), &[Rule::Missing]).unwrap();
                }
            }
        }

        let unknown = Envelope::request(Element::new(UDDI_NS, "discard_everything")).to_xml();
        let refused = request_verdict(&unknown);
        prop_assert!(matches!(&refused, Verdict::Refused(why) if why.contains("unknown UDDI operation")));
        let empty = Envelope::empty().to_xml();
        prop_assert_eq!(request_verdict(&empty), Verdict::Refused("UDDI request carries no body".into()));
        let nothing = Verdict::Refused("registry response body is empty".into());
        prop_assert_eq!(response_verdict(&empty), nothing);
        let soap11 = registry_request_xml(&request)
            .replace(SOAP_ENV_NS, "http://schemas.xmlsoap.org/soap/envelope/");
        prop_assert_eq!(request_verdict(&soap11), Verdict::NotSoap);
        prop_assert!(read_response(&soap11).is_err());
    }
}

/// Soup for the registry readers: pieces of the documents they read —
/// tags of the vocabulary, the envelope's, attributes, numbers good
/// and bad — tricky text, and raw bytes made text.
struct RegistrySoup;

impl Strategy for RegistrySoup {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        const PIECES: [&str; 24] = [
            "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\">",
            "</env:Envelope>",
            "<env:Body>",
            "</env:Body>",
            "<env:Header/>",
            "<u:serviceDetail xmlns:u=\"urn:uddi-org:api_v2\">",
            "<u:businessService serviceKey=\"k\" leaseTtlMs=\"",
            "<u:bindingTemplates><u:bindingTemplate bindingKey=\"b\">",
            "<u:accessPoint URLType=\"http\">",
            "<u:categoryBag><u:keyedReference tModelKey=\"t\" keyValue=\"v\"/>",
            "<u:name>",
            "</u:name>",
            "<u:find_serviceDetail xmlns:u=\"urn:uddi-org:api_v2\" maxRows=\"",
            "<r:dataVersions xmlns:r=\"urn:wsp:registry\" epoch=\"1\"><r:shard id=\"",
            "\" version=\"",
            "\" mapEpoch=\"",
            "<u:dispositionReport deleted=\"",
            "18446744073709551616",
            "99999999999",
            "-1",
            "\">",
            "\"/>",
            "</",
            ">",
        ];
        let mut soup = String::new();
        for _ in 0..rng.below(24) {
            match rng.below(4) {
                0 => soup.push_str(&tricky_text(rng, 2)),
                1 => {
                    let bytes: Vec<u8> = (0..rng.below(6)).map(|_| rng.next_u64() as u8).collect();
                    soup.push_str(&String::from_utf8_lossy(&bytes));
                }
                _ => soup.push_str(PIECES[rng.below(PIECES.len() as u64) as usize]),
            }
        }
        soup
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Whatever arrives, the registry readers answer — a value, a
    /// refusal — and never panic; what they read, they read as what it
    /// says.
    #[test]
    fn registry_readers_never_panic_on_soup(soup in RegistrySoup, request in Requests) {
        request_verdict(&soup);
        response_verdict(&soup);
        // Soup spliced into a whole document, where the readers go deep.
        let xml = registry_request_xml(&request);
        let at = (soup.len() % xml.len().max(1)..xml.len())
            .find(|&at| xml.is_char_boundary(at))
            .unwrap_or(xml.len());
        let spliced = format!("{}{soup}{}", &xml[..at], &xml[at..]);
        request_verdict(&spliced);
        response_verdict(&spliced);
    }
}
