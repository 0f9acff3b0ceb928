//! Property tests: every well-typed `Value` survives write → wire →
//! read against its schema type, and contracts round-trip through
//! WSDL text.

use proptest::prelude::*;
use wsp_soap::SoapError;
use wsp_wsdl::value::{read_value, value_element};
use wsp_wsdl::{
    ComplexType, FieldDef, OperationDef, Param, Port, Schema, ServiceDescriptor, TransportKind,
    Value, WsdlDocument, XsdType,
};

/// (type, conforming value) pairs for simple types.
fn simple_typed() -> impl Strategy<Value = (XsdType, Value)> {
    prop_oneof![
        any::<bool>().prop_map(|b| (XsdType::Boolean, Value::Bool(b))),
        any::<i64>().prop_map(|i| (XsdType::Int, Value::Int(i))),
        // Finite doubles only: NaN breaks equality, covered by a unit test.
        any::<f64>()
            .prop_filter("finite", |d| d.is_finite())
            .prop_map(|d| (XsdType::Double, Value::Double(d))),
        proptest::string::string_regex("[ -~]{0,24}")
            .unwrap()
            .prop_map(|s| (XsdType::String, Value::String(s.replace('\r', " ")))),
        proptest::collection::vec(any::<u8>(), 0..32)
            .prop_map(|b| (XsdType::Base64Binary, Value::Bytes(b))),
    ]
}

/// Arrays of one simple type.
fn typed_value() -> impl Strategy<Value = (XsdType, Value)> {
    prop_oneof![
        simple_typed(),
        (simple_typed(), 0usize..5)
            .prop_map(|((ty, v), n)| { (XsdType::Array(Box::new(ty)), Value::Array(vec![v; n])) }),
    ]
}

/// `xml`'s root read as `ty`, its children in `urn:prop`.
fn read(xml: &str, ty: &XsdType, schema: Option<&Schema>) -> Result<Value, SoapError> {
    let mut reader = wsp_xml::PullReader::new(xml);
    reader.next()?;
    read_value(&mut reader, "urn:prop", ty, schema)
}

fn ncname() -> impl Strategy<Value = String> {
    "[A-Za-z][A-Za-z0-9_]{0,8}"
}

fn operation() -> impl Strategy<Value = OperationDef> {
    (
        ncname(),
        proptest::collection::vec((ncname(), typed_value().prop_map(|(t, _)| t)), 0..4),
        proptest::option::of(typed_value().prop_map(|(t, _)| t)),
    )
        .prop_map(|(name, inputs, output)| OperationDef {
            name,
            inputs: inputs
                .into_iter()
                .enumerate()
                .map(|(i, (n, ty))| Param::new(format!("{n}{i}"), ty))
                .collect(),
            output: output.map(|ty| Param::new("return", ty)),
            documentation: None,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn typed_values_round_trip((ty, value) in typed_value()) {
        let xml = value_element("urn:prop", "v", &value).to_xml();
        let read = read(&xml, &ty, None).expect("a well-typed value reads");
        prop_assert_eq!(read, value, "wire: {}", xml);
    }

    #[test]
    fn struct_values_round_trip_via_schema(
        fields in proptest::collection::vec((ncname(), simple_typed()), 1..5)
    ) {
        // Unique field names.
        let fields: Vec<(String, (XsdType, Value))> = fields
            .into_iter()
            .enumerate()
            .map(|(i, (n, tv))| (format!("{n}{i}"), tv))
            .collect();
        let mut schema = Schema::new();
        schema.define(
            "T",
            ComplexType::new(
                fields.iter().map(|(n, (ty, _))| FieldDef::new(n.clone(), ty.clone())).collect(),
            ),
        );
        let value = Value::Struct(fields.iter().map(|(n, (_, v))| (n.clone(), v.clone())).collect());
        let xml = value_element("urn:prop", "t", &value).to_xml();
        let read = read(&xml, &XsdType::Complex("T".into()), Some(&schema));
        prop_assert_eq!(read.expect("struct reads"), value);
    }

    #[test]
    fn contracts_round_trip_through_wsdl_text(
        name in ncname(),
        ops in proptest::collection::vec(operation(), 1..5),
    ) {
        // Unique operation names.
        let ops: Vec<OperationDef> = ops
            .into_iter()
            .enumerate()
            .map(|(i, mut op)| { op.name = format!("{}{i}", op.name); op })
            .collect();
        let mut descriptor = ServiceDescriptor::new(name.clone(), format!("urn:prop:{name}"));
        for op in ops {
            descriptor = descriptor.operation(op);
        }
        let doc = WsdlDocument::new(
            descriptor,
            vec![Port {
                name: format!("{name}Port"),
                transport: TransportKind::Http,
                location: format!("http://host/{name}"),
            }],
        );
        let xml = doc.to_xml();
        let parsed = WsdlDocument::from_xml(&xml).expect("generated WSDL parses");
        prop_assert_eq!(parsed, doc, "wsdl:\n{}", xml);
    }

    #[test]
    fn decode_never_panics_on_arbitrary_xml(body in "[ -~]{0,64}") {
        let xml = format!("<v xmlns=\"urn:prop\">{body}</v>");
        let mut schema = Schema::new();
        schema.define("T", ComplexType::new(vec![FieldDef::optional("item", XsdType::Int)]));
        for ty in [
            XsdType::Boolean,
            XsdType::Int,
            XsdType::Double,
            XsdType::Base64Binary,
            XsdType::String,
            XsdType::AnyType,
            XsdType::Array(Box::new(XsdType::Int)),
            XsdType::Complex("T".into()),
        ] {
            let _ = read(&xml, &ty, Some(&schema));
        }
    }
}
