//! The typed codec against the tree codec: an invocation read off the
//! tokenizer into `Value`s and written from `Value`s into bytes must be
//! the invocation the envelope path reads and writes.
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
use std::sync::Arc;
use wsp_p2ps::{
    decode_request, encode_response, request_headers, with_reply_pipe, PeerId, PipeAdvertisement,
};
use wsp_soap::typed::read_envelope;
use wsp_soap::{Envelope, Fault, HeaderBlock, MessageHeaders, SOAP_ENV_NS, WSA_NS};
use wsp_wsdl::{
    proxy, ComplexType, FieldDef, MessageEngine, OperationDef, Schema, ServiceDescriptor, Value,
    XsdType,
};
use wsp_xml::Element;

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
