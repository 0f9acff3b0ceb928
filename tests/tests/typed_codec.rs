//! The typed codec against the tree codec: an invocation read off the
//! tokenizer into `Value`s and written from `Value`s into bytes must be
//! the invocation the envelope path reads and writes — and a registry
//! exchange read into records and written from records must be the one
//! the tree decoders and writers make of it (the last section).
//!
//! Writers: the streamed bytes *are* the tree writer's, for generated
//! contracts and arguments, under both bindings' header sets. Readers:
//! for those documents — whole, cut or damaged at every offset, with
//! parameters reordered or repeated, a foreign `mustUnderstand` block,
//! an empty body, a SOAP 1.1 envelope — the typed reader either
//! declines (and the caller takes the tree path, so there is nothing to
//! compare) or answers exactly what the tree path answers: the same
//! handler call, the same response bytes but for the `MessageID` each
//! response is given, the same decoded `Value`.

use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::borrow::Cow;
use std::sync::Arc;
use wsp_p2ps::{
    decode_request, encode_response, request_headers, with_reply_pipe, PeerId, PipeAdvertisement,
};
use wsp_registry::ShardMap;
use wsp_soap::typed::read_envelope;
use wsp_soap::{Envelope, Fault, HeaderBlock, MessageHeaders, SOAP_ENV_NS, WSA_NS};
use wsp_uddi::wire::{
    read_request, read_request_typed, read_response, read_response_typed, write_request,
    write_response,
};
use wsp_uddi::{
    BindingTemplate, BusinessEntity, BusinessService, DataVersions, KeyedReference, ServiceInfo,
    ServiceQuery, TModel, UddiOp, UddiRequest, UddiResponse, REGISTRY_NS, UDDI_NS,
};
use wsp_wsdl::{
    proxy, ComplexType, FieldDef, MessageEngine, OperationDef, Schema, ServiceDescriptor, Value,
    XsdType,
};
use wsp_xml::{Element, Node, QName};

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
/// tree path of both invokers — and those headers.
fn request_tree(case: &Case, wire: Wire) -> Result<(Envelope, MessageHeaders), String> {
    let (descriptor, operation) = (&case.descriptor, case.operation.as_str());
    let mut envelope = proxy::encode_request(descriptor, ENDPOINT, operation, &case.args)
        .map_err(|e| e.to_string())?;
    let (leading, headers) = wire.request_headers(operation);
    // Under HTTP the envelope's own headers are the ones to write:
    // only the generated `MessageID` could differ.
    let headers = match wire {
        Wire::Http => envelope.addressing().expect("addressed"),
        Wire::Pipes { .. } => headers,
    };
    for block in leading {
        envelope.add_header(HeaderBlock::new(block));
    }
    envelope.set_addressing(headers.clone());
    Ok((envelope, headers))
}

fn request_xml(case: &Case, wire: Wire) -> Result<String, String> {
    request_tree(case, wire).map(|(envelope, _)| envelope.to_xml())
}

fn request_typed(case: &Case, wire: Wire, headers: &MessageHeaders) -> Result<String, String> {
    let (leading, _) = wire.request_headers(&case.operation);
    let mut out = Vec::new();
    let (descriptor, operation) = (&case.descriptor, case.operation.as_str());
    proxy::write_request(
        descriptor, &leading, headers, operation, &case.args, &mut out,
    )
    .map_err(|e| e.to_string())?;
    Ok(String::from_utf8(out).expect("UTF-8"))
}

// --- the server, both ways ----------------------------------------------------

/// An engine whose handler answers `case.reply` and writes down what
/// it was called with.
fn engine_for(case: &Case) -> (MessageEngine, Arc<Mutex<Vec<String>>>) {
    let calls = Arc::new(Mutex::new(Vec::new()));
    let (log, reply) = (calls.clone(), case.reply.clone());
    let handler = move |op: &str, args: &[Value]| {
        log.lock().push(format!("{op}{args:?}"));
        reply.clone()
    };
    let engine = MessageEngine::new(case.descriptor.clone(), Arc::new(handler));
    (engine, calls)
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

/// What came of serving one document: the handler's calls, and the
/// response (no `MessageID`s), none for a one-way operation.
type Served = (Vec<String>, Option<String>);

/// The listener path: parse, process, re-address, serialise. `Err` is
/// the codec's refusal of the document.
fn serve_tree(
    engine: &MessageEngine,
    calls: &Mutex<Vec<String>>,
    wire: Wire,
    xml: &str,
) -> Result<Served, String> {
    let request = Envelope::from_xml(xml).map_err(|e| e.to_string())?;
    let readdress = wire.readdress(&request.addressing().unwrap_or_default());
    let response = engine.process(&request).map(|mut response| {
        if let Some(headers) = readdress {
            response.set_addressing(headers);
        }
        without_message_ids(&response.to_xml())
    });
    Ok((std::mem::take(&mut calls.lock()), response))
}

/// The fast path; `None` when the typed reader declines the document.
fn serve_typed(
    engine: &MessageEngine,
    calls: &Mutex<Vec<String>>,
    wire: Wire,
    xml: &str,
) -> Option<Served> {
    let request = engine.read_request(xml, &mut |_| {})?;
    assert!(calls.lock().is_empty(), "the reader called the handler");
    let readdress = wire.readdress(&request.headers);
    let mut out = Vec::new();
    let fault = engine.answer(&request, readdress.as_ref(), &mut out);
    let response = fault.map(|fault| {
        let xml = String::from_utf8(out).expect("UTF-8");
        assert_eq!(fault, xml.contains("<env:Fault>"), "{xml}");
        without_message_ids(&xml)
    });
    Some((std::mem::take(&mut calls.lock()), response))
}

/// Both paths on one document: the typed one declines, or the two
/// agree. Returns what the typed path made of it.
fn served_alike(case: &Case, wire: Wire, xml: &str) -> Option<Served> {
    let (engine, calls) = engine_for(case);
    let typed = serve_typed(&engine, &calls, wire, xml);
    if let Some(typed) = &typed {
        let tree = serve_tree(&engine, &calls, wire, xml);
        assert_eq!(Ok(typed), tree.as_ref(), "{wire:?} served {xml}");
    }
    typed
}

/// The same for the client's half: `read_response` declines or decodes
/// what `decode_response` decodes.
fn decoded_alike(case: &Case, xml: &str) -> Option<Value> {
    let (descriptor, operation) = (&case.descriptor, case.operation.as_str());
    let typed = proxy::read_response(descriptor, operation, xml);
    if let Some(typed) = &typed {
        let envelope = Envelope::from_xml(xml);
        let tree =
            envelope.map(|envelope| proxy::decode_response(descriptor, operation, &envelope));
        // `Debug`: a NaN is not equal to itself.
        let same = format!("{:?}", Ok::<_, ()>(Ok::<_, ()>(typed)));
        assert_eq!(same, format!("{tree:?}"), "decoded {xml}");
    }
    typed
}

/// And for what a pipe reads of a message before anyone decodes it:
/// the typed header reader declines, or finds the envelope's addressing
/// and shows the envelope's other blocks.
fn routed_alike(xml: &str) {
    let mut shown = Vec::new();
    let mut foreign = |block: &Element| shown.push((block.name().clone(), block.text()));
    let Some((headers, ())) = read_envelope(xml, &mut foreign, |body| body.skip().ok()) else {
        return;
    };
    let envelope = Envelope::from_xml(xml).expect("the typed reader took it");
    assert_eq!(headers, envelope.addressing().unwrap_or_default(), "{xml}");
    let others = envelope.headers().iter().map(|block| &block.element);
    let others: Vec<_> = others
        .filter(|e| e.name().namespace() != WSA_NS)
        .map(|e| (e.name().clone(), e.text()))
        .collect();
    assert_eq!(shown, others, "{xml}");
    assert_eq!(decode_request(xml, &mut |_| {}), Some(headers));
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

/// Writers: the bytes are the tree writer's. Readers, on those
/// canonical documents: agreement — and not a vacuous one, the typed
/// path is the one that runs for most of them (it leaves `xsi:nil`
/// inside untyped values, and little else, to the tree).
#[test]
fn whole_messages_are_written_and_read_alike() {
    let mut rng = TestRng::for_test("typed_codec::whole_messages");
    let (mut typed_served, mut tree_only) = (0, 0);
    for _ in 0..256 {
        let case = Cases.generate(&mut rng);
        for wire in WIRES {
            let tree = request_tree(&case, wire);
            let headers = match &tree {
                Ok((_, headers)) => headers.clone(),
                Err(_) => wire.request_headers(&case.operation).1,
            };
            let typed = request_typed(&case, wire, &headers);
            let tree = tree.map(|(envelope, _)| envelope.to_xml());
            assert_eq!(typed, tree, "{wire:?} {case:?}");
            let Ok(request) = typed else { continue };
            routed_alike(&request);

            match served_alike(&case, wire, &request) {
                Some(_) => typed_served += 1,
                None => tree_only += 1,
            }
            // The response the client reads is the tree path's, which
            // the typed path's equals wherever there is one.
            let (engine, calls) = engine_for(&case);
            let (_, response) = serve_tree(&engine, &calls, wire, &request).expect("canonical");
            if let Some(response) = response {
                routed_alike(&response);
                let decoded = decoded_alike(&case, &response);
                assert!(
                    case.reply.is_ok() || decoded.is_none(),
                    "a fault read typed"
                );
            }
        }
    }
    assert!(
        typed_served > 4 * tree_only,
        "{typed_served} served typed, {tree_only} declined"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cut or damaged at every offset, a request and its response are
    /// still declined or read alike — never read differently.
    #[test]
    fn damaged_messages_are_declined_or_read_alike(case in Cases, pick in 0usize..3) {
        let wire = WIRES[pick];
        let Ok(request) = request_xml(&case, wire) else { continue };
        for document in damaged(&request) {
            served_alike(&case, wire, &document);
            routed_alike(&document);
        }
        let (engine, calls) = engine_for(&case);
        let (_, response) = serve_tree(&engine, &calls, wire, &request).expect("canonical");
        for document in damaged(&response.unwrap_or_default()) {
            decoded_alike(&case, &document);
            routed_alike(&document);
        }
    }

    /// Shapes the typed reader leaves to the tree, by name: each is
    /// declined, and the tree path answers it as it always did.
    #[test]
    fn shapes_outside_the_typed_readers_are_declined(case in Cases, pick in 0usize..3) {
        let wire = WIRES[pick];
        let Ok((request, _)) = request_tree(&case, wire) else { continue };
        let variant = |edit: &dyn Fn(&mut Element)| {
            let mut payload = request.payload().expect("a request").clone();
            edit(&mut payload);
            let mut variant = Envelope::request(payload);
            request.headers().iter().for_each(|block| variant.add_header(block.clone()));
            variant
        };
        let declined = |what: &str, xml: &str| {
            prop_assert_eq!(served_alike(&case, wire, xml), None, "{} served typed: {}", what, xml);
        };
        let parameters = request.payload().expect("a request").children().len();
        if parameters >= 2 {
            declined("reordered", &variant(&|payload| payload.children_mut().reverse()).to_xml());
        }
        if parameters >= 1 {
            let repeated = variant(&|payload| {
                let first = payload.children()[0].clone();
                payload.children_mut().push(first);
            });
            declined("a repeated parameter", &repeated.to_xml());
        }
        let mut mandatory = request.clone();
        mandatory.add_header(HeaderBlock::mandatory(Element::new("urn:strange", "Security")));
        declined("a foreign mustUnderstand block", &mandatory.to_xml());
        let (engine, calls) = engine_for(&case);
        let (called, fault) = serve_tree(&engine, &calls, wire, &mandatory.to_xml()).unwrap();
        prop_assert!(called.is_empty() && fault.unwrap().contains("env:MustUnderstand"));

        let mut empty = Envelope::empty();
        request.headers().iter().for_each(|block| empty.add_header(block.clone()));
        declined("an empty body", &empty.to_xml());
        let soap11 = request.to_xml().replace(SOAP_ENV_NS, "http://schemas.xmlsoap.org/soap/envelope/");
        declined("a SOAP 1.1 envelope", &soap11);
        let (engine, calls) = engine_for(&case);
        prop_assert!(serve_tree(&engine, &calls, wire, &soap11).is_err());

        // Layout is not shape: indented, the request is still typed
        // wherever it was, and still served alike.
        let pretty = request.to_element().to_pretty_xml();
        let compact = served_alike(&case, wire, &request.to_xml());
        prop_assert_eq!(served_alike(&case, wire, &pretty).is_some(), compact.is_some(), "{}", pretty);
    }
}

/// The shapes the issue names, spelled out: each is served typed, and
/// answers what the tree path answers.
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
        for wire in WIRES {
            let request = request_xml(&case, wire).expect("valid call");
            let (called, response) = served_alike(&case, wire, &request)
                .unwrap_or_else(|| panic!("{wire:?} declined {request}"));
            assert_eq!(called.len(), 1);
            assert_eq!(response.is_some(), operation != "notify");
            let Some(response) = response else { continue };
            let decoded = decoded_alike(&case, &response);
            assert_eq!(decoded, case.reply.clone().ok(), "{response}");
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

/// Both readers on one request document: the typed one declines, or
/// reads what the tree decoder decodes. Returns the typed reading.
fn request_read_alike(xml: &str) -> Option<UddiRequest<'static>> {
    let typed = read_request_typed(xml);
    let tree = Envelope::from_xml(xml).map(|envelope| match envelope.payload() {
        Some(payload) => UddiRequest::from_payload(payload),
        None => Err(Fault::sender("UDDI request carries no body")),
    });
    if let Some(typed) = &typed {
        assert_eq!(tree, Ok(Ok(typed.clone())), "read {xml}");
    }
    let either = read_request(xml);
    assert_eq!(either, tree.ok(), "the reader is the two of them: {xml}");
    typed
}

/// The same for a response document.
fn response_read_alike(xml: &str) -> Option<UddiResponse> {
    let typed = read_response_typed(xml);
    let tree = Envelope::from_xml(xml).map(UddiResponse::from_envelope);
    if let Some(typed) = &typed {
        assert_eq!(tree, Ok(Ok(typed.clone())), "read {xml}");
    }
    match (read_response(xml), tree) {
        (Ok(either), Ok(Ok(tree))) => assert_eq!(either, tree, "{xml}"),
        (either, tree) => assert!(either.is_err() && !matches!(tree, Ok(Ok(_))), "{xml}"),
    }
    typed
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
/// answer. Readers, on those documents: the typed reader reads every
/// request and every answer but a fault and the shard map, and reads
/// each as the value that was written — which the tree decoders decode
/// too.
#[test]
fn registry_documents_are_written_and_read_alike() {
    let mut rng = TestRng::for_test("typed_codec::registry_documents");
    for _ in 0..256 {
        let request = Requests.generate(&mut rng);
        let xml = registry_request_xml(&request);
        assert_eq!(request_read_alike(&xml), Some(request), "{xml}");

        let response = Responses.generate(&mut rng);
        let xml = registry_response_xml(&response);
        let typed = response_read_alike(&xml);
        match response {
            UddiResponse::Fault(_) | UddiResponse::Other(_) => {
                assert_eq!(typed, None, "{xml}");
                assert_eq!(read_response(&xml), Ok(response), "{xml}");
            }
            response => assert_eq!(typed, Some(response), "{xml}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cut or damaged at every offset, a request and an answer are still
    /// declined or read alike — never read differently.
    #[test]
    fn damaged_registry_documents_are_declined_or_read_alike(
        request in Requests,
        response in Responses,
    ) {
        for document in damaged(&registry_request_xml(&request)) {
            request_read_alike(&document);
        }
        for document in damaged(&registry_response_xml(&response)) {
            response_read_alike(&document);
        }
    }

    /// Shapes by name. Children and attributes in another order, a child
    /// repeated, an attribute left out: read alike, and layout and order
    /// are not shape — still read typed. A foreign attribute or child anywhere
    /// in the document: declined. A fault, an unknown operation, an
    /// empty body, SOAP 1.1: declined, and the tree decoders answer.
    #[test]
    fn registry_shapes_outside_the_typed_readers_are_declined(
        request in Requests,
        response in Responses,
    ) {
        let request_payload = registry_request_tree(&request);
        let response_payload = match registry_response_tree(&response).into_body() {
            wsp_soap::Body::Payload(payload) => payload,
            _ => Element::new("urn:wspeer:test:not-registry", "fault"),
        };
        let typed_request = |payload: Element| {
            request_read_alike(&Envelope::request(payload).to_xml())
        };
        let typed_response = |payload: Element| {
            response_read_alike(&Envelope::request(payload).to_xml())
        };
        let mut backwards = request_payload.clone();
        reversed(&mut backwards);
        prop_assert!(typed_request(backwards).is_some(), "{request:?}");
        let pretty = Envelope::request(request_payload.clone()).to_element().to_pretty_xml();
        prop_assert!(request_read_alike(&pretty).is_some(), "{pretty}");
        let canonical = typed_response(response_payload.clone()).is_some();
        let mut backwards = response_payload.clone();
        reversed(&mut backwards);
        prop_assert_eq!(typed_response(backwards).is_some(), canonical, "{:?}", response);

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
        for n in 0.. {
            let Some(variant) = edited(&request_payload, n, &foreign_attribute) else { break };
            prop_assert!(typed_request(variant).is_none(), "{request:?} #{n}");
            let variant = edited(&request_payload, n, &plain_attribute).expect("as many");
            typed_request(variant);
            let variant = edited(&request_payload, n, &foreign_child).expect("as many");
            prop_assert!(typed_request(variant).is_none(), "{request:?} #{n}");
            for k in 0..8 {
                typed_request(edited(&request_payload, n, &repeated(k)).expect("as many"));
                typed_request(edited(&request_payload, n, &dropped(k)).expect("as many"));
            }
        }
        for n in 0.. {
            let Some(variant) = edited(&response_payload, n, &foreign_attribute) else { break };
            prop_assert!(typed_response(variant).is_none(), "{response:?} #{n}");
            let variant = edited(&response_payload, n, &plain_attribute).expect("as many");
            prop_assert!(typed_response(variant).is_none(), "{response:?} #{n}");
            let variant = edited(&response_payload, n, &foreign_child).expect("as many");
            prop_assert!(typed_response(variant).is_none(), "{response:?} #{n}");
            for k in 0..8 {
                typed_response(edited(&response_payload, n, &repeated(k)).expect("as many"));
                typed_response(edited(&response_payload, n, &dropped(k)).expect("as many"));
            }
        }

        let unknown = Envelope::request(Element::new(UDDI_NS, "discard_everything")).to_xml();
        prop_assert!(request_read_alike(&unknown).is_none());
        prop_assert!(read_request(&unknown).is_some_and(|refused| refused.is_err()));
        let empty = Envelope::empty().to_xml();
        prop_assert!(request_read_alike(&empty).is_none() && response_read_alike(&empty).is_none());
        let soap11 = registry_request_xml(&request)
            .replace(wsp_soap::SOAP_ENV_NS, "http://schemas.xmlsoap.org/soap/envelope/");
        prop_assert!(request_read_alike(&soap11).is_none() && read_request(&soap11).is_none());
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
    /// refusal, a decline — and never panic; where the typed reader does
    /// answer, the tree decoders answer the same.
    #[test]
    fn registry_readers_never_panic_on_soup(soup in RegistrySoup, request in Requests) {
        request_read_alike(&soup);
        response_read_alike(&soup);
        // Soup spliced into a whole document, where the readers go deep.
        let xml = registry_request_xml(&request);
        let at = (soup.len() % xml.len().max(1)..xml.len())
            .find(|&at| xml.is_char_boundary(at))
            .unwrap_or(xml.len());
        let spliced = format!("{}{soup}{}", &xml[..at], &xml[at..]);
        request_read_alike(&spliced);
        response_read_alike(&spliced);
    }
}
