//! The dynamic value model used on both sides of an invocation.
//!
//! Axis maps SOAP payloads onto Java objects via generated stubs; the
//! Rust equivalent (see `DESIGN.md`) is a small dynamically-typed value
//! tree validated against the WSDL schema at call time. `Value` is what
//! application handlers receive as arguments and return as results.

use crate::base64;
use crate::xsd::{FieldDef, Schema, XsdType};
use std::borrow::Cow;
use wsp_soap::typed::{name_of, next_tag, read_text, Rule};
use wsp_soap::{Fault, SoapError};
use wsp_xml::{Element, Pull, PullReader, QName, StreamWriter};

/// XML Schema instance namespace (for `xsi:nil`).
pub const XSI_NS: &str = "http://www.w3.org/2001/XMLSchema-instance";

/// A dynamically typed value travelling through an invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `xsi:nil` / absent optional value.
    Null,
    Bool(bool),
    /// All XSD integer flavours collapse to `i64`.
    Int(i64),
    Double(f64),
    String(String),
    /// `xsd:base64Binary`.
    Bytes(Vec<u8>),
    /// Homogeneous sequence (a `maxOccurs="unbounded"` element).
    Array(Vec<Value>),
    /// Named fields of a complex type, in declaration order.
    Struct(Vec<(String, Value)>),
}

impl Value {
    pub fn string(s: impl Into<String>) -> Value {
        Value::String(s.into())
    }

    /// The [`XsdType`] that naturally describes this value.
    pub fn natural_type(&self) -> XsdType {
        match self {
            Value::Null => XsdType::AnyType,
            Value::Bool(_) => XsdType::Boolean,
            Value::Int(_) => XsdType::Int,
            Value::Double(_) => XsdType::Double,
            Value::String(_) => XsdType::String,
            Value::Bytes(_) => XsdType::Base64Binary,
            Value::Array(items) => XsdType::Array(Box::new(
                items
                    .first()
                    .map(Value::natural_type)
                    .unwrap_or(XsdType::AnyType),
            )),
            Value::Struct(_) => XsdType::AnyType,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Field of a struct value by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Struct(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The lexical form of a simple value; `None` for nil, arrays and
    /// structs, which are elements and attributes, not text.
    fn lexical(&self) -> Option<Cow<'_, str>> {
        Some(match self {
            Value::Null | Value::Array(_) | Value::Struct(_) => return None,
            Value::Bool(true) => "true".into(),
            Value::Bool(false) => "false".into(),
            Value::Int(i) => i.to_string().into(),
            Value::Double(d) => format_double(*d).into(),
            Value::String(s) => Cow::Borrowed(s.as_str()),
            Value::Bytes(b) => base64::encode(b).into(),
        })
    }

    /// Encode this value as the contents of `element` (text children for
    /// simple types, child elements for structs/arrays).
    pub fn encode_into(&self, ns: &str, element: &mut Element) {
        match self {
            Value::Null => {
                element.set_attribute(QName::new(XSI_NS, "nil"), "true");
            }
            Value::Array(items) => {
                for item in items {
                    let mut child = Element::new(ns.to_owned(), "item");
                    item.encode_into(ns, &mut child);
                    element.push_element(child);
                }
            }
            Value::Struct(fields) => {
                for (name, value) in fields {
                    let mut child = Element::new(ns.to_owned(), name.clone());
                    value.encode_into(ns, &mut child);
                    element.push_element(child);
                }
            }
            simple => element.push_text(simple.lexical().expect("a simple value")),
        }
    }

    /// The value `text` spells in the lexical space of the simple type
    /// `ty` (strings aside: they are not trimmed, nor ever refused).
    fn from_lexical(ty: &XsdType, text: &str) -> Option<Value> {
        match ty {
            XsdType::Boolean => match text {
                "true" | "1" => Some(Value::Bool(true)),
                "false" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            XsdType::Double => parse_double(text).map(Value::Double),
            XsdType::Base64Binary => base64::decode(text).map(Value::Bytes),
            _ => text.parse().ok().map(Value::Int),
        }
    }

    /// True when this value is acceptable where `expected` is required.
    pub fn conforms_to(&self, expected: &XsdType) -> bool {
        match (self, expected) {
            (_, XsdType::AnyType) => true,
            (Value::Null, _) => true,
            (Value::Bool(_), XsdType::Boolean) => true,
            (Value::Int(_), XsdType::Int | XsdType::Long | XsdType::Double) => true,
            (Value::Double(_), XsdType::Double) => true,
            (Value::String(_), XsdType::String) => true,
            (Value::Bytes(_), XsdType::Base64Binary) => true,
            (Value::Array(items), XsdType::Array(item_ty)) => {
                items.iter().all(|i| i.conforms_to(item_ty))
            }
            (Value::Struct(_), XsdType::Complex(_)) => true,
            _ => false,
        }
    }

    /// Approximate wire size, used by benches to label payload scales.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 4,
            Value::Bool(_) => 5,
            Value::Int(_) => 12,
            Value::Double(_) => 16,
            Value::String(s) => s.len(),
            Value::Bytes(b) => b.len() * 4 / 3,
            Value::Array(items) => {
                items.iter().map(Value::approx_size).sum::<usize>() + items.len() * 13
            }
            Value::Struct(fields) => fields
                .iter()
                .map(|(n, v)| n.len() * 2 + 5 + v.approx_size())
                .sum(),
        }
    }
}

/// Render a double in XSD lexical space (plain decimal / scientific,
/// with NaN/INF spellings).
fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".to_owned()
    } else if d.is_infinite() {
        if d > 0.0 {
            "INF".to_owned()
        } else {
            "-INF".to_owned()
        }
    } else {
        // Rust's Display for f64 is shortest-round-trip, which is valid
        // XSD lexical form.
        format!("{d}")
    }
}

fn parse_double(text: &str) -> Option<f64> {
    match text {
        "NaN" => Some(f64::NAN),
        "INF" => Some(f64::INFINITY),
        "-INF" => Some(f64::NEG_INFINITY),
        t => t.parse().ok(),
    }
}

/// Convenience: wrap a value as a named element in `ns`.
pub fn value_element(ns: &str, name: &str, value: &Value) -> Element {
    let mut e = Element::new(ns.to_owned(), name.to_owned());
    value.encode_into(ns, &mut e);
    e
}

/// Stream the element [`value_element`] builds.
pub fn write_value(out: &mut StreamWriter<'_>, ns: &str, name: &str, value: &Value) {
    match value {
        Value::Null => out.element_with(ns, name, &[(XSI_NS, "nil", "true")], |_| {}),
        Value::Array(items) => out.element(ns, name, |out| {
            items.iter().for_each(|i| write_value(out, ns, "item", i));
        }),
        Value::Struct(fields) => out.element(ns, name, |out| {
            fields.iter().for_each(|(n, v)| write_value(out, ns, n, v));
        }),
        simple => out.element(ns, name, |out| {
            out.text(&simple.lexical().expect("a simple value"));
        }),
    }
}

/// Read the element whose start tag the cursor rests on, through its
/// end tag, as `expected` — its children in `ns`, named complex types
/// resolved through `schema` where there is one (a type it does not
/// define, or no schema at all, is read untyped). `xsi:nil="true"` on
/// an empty element is `Null`; a lexical form outside its type is the
/// sender's fault; other shapes are refused by the [`Rule`] they break:
/// another attribute, content beside the nil mark, an element where text
/// goes or text beside elements, an array item not named `item`, a child
/// outside `ns`, a struct field repeated or unknown.
pub fn read_value(
    reader: &mut PullReader<'_>,
    ns: &str,
    expected: &XsdType,
    schema: Option<&Schema>,
) -> Result<Value, SoapError> {
    if reader.attribute_count() > 0 {
        return read_nil(reader);
    }
    let complex = match (expected, schema) {
        (XsdType::Complex(name), Some(schema)) => schema.get(name).map(|c| (name, c)),
        _ => None,
    };
    Ok(match (expected, complex) {
        (XsdType::Array(item), _) => {
            let mut items = Vec::new();
            while next_tag(reader)? == Pull::Start {
                if !reader.is(ns, "item") {
                    return Err(Rule::UnknownElement.refuse(name_of(reader)));
                }
                items.push(read_value(reader, ns, item, schema)?);
            }
            Value::Array(items)
        }
        (_, Some((name, complex))) => {
            let fields = &complex.fields;
            let values = read_members(
                reader,
                fields,
                ns,
                |reader, field| read_value(reader, ns, &field.ty, schema),
                |field| {
                    let field = &field.name;
                    Fault::sender(format!(
                        "complex type {name} is missing required field {field:?}"
                    ))
                },
            )?;
            Value::Struct(fields.iter().map(|f| f.name.clone()).zip(values).collect())
        }
        (XsdType::AnyType | XsdType::Complex(_), None) => read_untyped(reader, ns)?,
        (XsdType::String, _) => Value::String(read_text(reader)?.into_owned()),
        (simple, _) => {
            let text = read_text(reader)?;
            let text = text.trim();
            Value::from_lexical(simple, text).ok_or_else(|| {
                let ty = match simple {
                    XsdType::Boolean => "boolean",
                    XsdType::Double => "double",
                    XsdType::Base64Binary => "base64Binary",
                    _ => "integer",
                };
                Fault::sender(format!("{text:?} is not a valid xsd:{ty}"))
            })?
        }
    })
}

/// An element whose only attribute is `xsi:nil="true"` and which has no
/// content: `Null`.
fn read_nil(reader: &mut PullReader<'_>) -> Result<Value, SoapError> {
    let mut nil = reader.attribute_count() == 1;
    reader.attributes(|ns, local, value| nil &= (ns, local, &*value) == (XSI_NS, "nil", "true"));
    if !nil {
        return Err(Rule::UnknownAttribute.refuse(format_args!("on {}", name_of(reader))));
    }
    match reader.next()? {
        Pull::End => Ok(Value::Null),
        _ => Err(Rule::UnknownElement.refuse("content beside xsi:nil")),
    }
}

/// A value read without a type: character data alone is a string;
/// child elements are a struct of them by name — or an array, when
/// every one is an `item`.
fn read_untyped(reader: &mut PullReader<'_>, ns: &str) -> Result<Value, SoapError> {
    let mut text = String::new();
    let mut children = Vec::new();
    loop {
        match reader.next()? {
            Pull::Text(run) => text.push_str(&run),
            Pull::Start if reader.is(ns, reader.local_name()) => {
                let name = reader.local_name().to_owned();
                let value = match reader.attribute_count() {
                    0 => read_untyped(reader, ns)?,
                    _ => read_nil(reader)?,
                };
                children.push((name, value));
            }
            Pull::Start => return Err(Rule::UnknownElement.refuse(name_of(reader))),
            Pull::End | Pull::Eof => break,
        }
    }
    Ok(if children.is_empty() {
        Value::String(text)
    } else if !text.trim().is_empty() {
        return Err(Rule::StrayText.refuse("beside elements"));
    } else if children.iter().all(|(name, _)| name == "item") {
        Value::Array(children.into_iter().map(|(_, value)| value).collect())
    } else {
        Value::Struct(children)
    })
}

/// Read the children of the element whose start tag the cursor rests
/// on, through its end tag, as `members` — an operation's parameters or
/// a complex type's fields, in `ns` and in any order: the `k`-th child
/// of a name is the `k`-th member of that name, read by `read`. A
/// member left out is `Null` if optional and `missing`'s fault if not;
/// a child with no member left to be is refused.
pub fn read_members<'a>(
    reader: &mut PullReader<'a>,
    members: &[FieldDef],
    ns: &str,
    mut read: impl FnMut(&mut PullReader<'a>, &FieldDef) -> Result<Value, SoapError>,
    missing: impl Fn(&FieldDef) -> Fault,
) -> Result<Vec<Value>, SoapError> {
    let mut values: Vec<Option<Value>> = vec![None; members.len()];
    while next_tag(reader)? == Pull::Start {
        let local = reader.local_name();
        if !reader.is(ns, local) {
            return Err(Rule::UnknownElement.refuse(name_of(reader)));
        }
        let mut named = members.iter().zip(&values).enumerate();
        let Some((at, _)) = named.find(|(_, (m, v))| m.name == local && v.is_none()) else {
            let known = members.iter().any(|m| m.name == local);
            let rule = if known {
                Rule::Repeated
            } else {
                Rule::UnknownElement
            };
            return Err(rule.refuse(local));
        };
        values[at] = Some(read(reader, &members[at])?);
    }
    let mut left_out = members.iter().zip(&values);
    if let Some((member, _)) = left_out.find(|(m, v)| v.is_none() && !m.optional) {
        return Err(missing(member).into());
    }
    // An `Option<Value>` is the size of a `Value`: collected in place.
    Ok(values
        .into_iter()
        .map(|value| value.unwrap_or(Value::Null))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `xml`'s root read as `ty`, its children in `ns`.
    fn read(
        xml: &str,
        ns: &str,
        ty: &XsdType,
        schema: Option<&Schema>,
    ) -> Result<Value, SoapError> {
        let mut reader = PullReader::new(xml);
        assert_eq!(reader.next(), Ok(Pull::Start));
        read_value(&mut reader, ns, ty, schema)
    }

    fn round_trip(value: &Value, ty: &XsdType) -> Value {
        let xml = value_element("urn:t", "v", value).to_xml();
        read(&xml, "urn:t", ty, None).unwrap()
    }

    /// The reason of a value the reader refused with a fault.
    fn refused(read: Result<Value, SoapError>) -> Fault {
        match read {
            Err(SoapError::Fault(fault)) => fault,
            other => panic!("not a fault: {other:?}"),
        }
    }

    #[test]
    fn simple_round_trips() {
        assert_eq!(
            round_trip(&Value::Bool(true), &XsdType::Boolean),
            Value::Bool(true)
        );
        assert_eq!(round_trip(&Value::Int(-42), &XsdType::Int), Value::Int(-42));
        assert_eq!(
            round_trip(&Value::Double(2.5), &XsdType::Double),
            Value::Double(2.5)
        );
        assert_eq!(
            round_trip(&Value::string("hi <x>"), &XsdType::String),
            Value::string("hi <x>")
        );
        assert_eq!(
            round_trip(&Value::Bytes(vec![1, 2, 255]), &XsdType::Base64Binary),
            Value::Bytes(vec![1, 2, 255])
        );
    }

    #[test]
    fn special_doubles_round_trip() {
        assert_eq!(
            round_trip(&Value::Double(f64::INFINITY), &XsdType::Double),
            Value::Double(f64::INFINITY)
        );
        let nan = round_trip(&Value::Double(f64::NAN), &XsdType::Double);
        assert!(matches!(nan, Value::Double(d) if d.is_nan()));
    }

    #[test]
    fn null_round_trips_via_nil() {
        assert_eq!(round_trip(&Value::Null, &XsdType::String), Value::Null);
        // Inside an untyped value too.
        let untyped = Value::Struct(vec![("a".into(), Value::Null)]);
        assert_eq!(round_trip(&untyped, &XsdType::AnyType), untyped);
    }

    #[test]
    fn array_round_trip() {
        let v = Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let ty = XsdType::Array(Box::new(XsdType::Int));
        assert_eq!(round_trip(&v, &ty), v);
    }

    #[test]
    fn empty_array_round_trip() {
        let v = Value::Array(vec![]);
        let ty = XsdType::Array(Box::new(XsdType::Int));
        assert_eq!(round_trip(&v, &ty), v);
    }

    #[test]
    fn struct_decodes_untyped() {
        let v = Value::Struct(vec![
            ("name".into(), Value::string("cactus")),
            ("step".into(), Value::string("7")),
        ]);
        assert_eq!(round_trip(&v, &XsdType::AnyType), v);
    }

    #[test]
    fn nested_struct_with_array() {
        let v = Value::Struct(vec![(
            "frames".into(),
            Value::Array(vec![Value::string("a"), Value::string("b")]),
        )]);
        let got = round_trip(&v, &XsdType::AnyType);
        // Untyped arrays inside structs decode as struct field with array.
        assert_eq!(got.field("frames").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn bad_lexical_forms_rejected() {
        for ty in [
            XsdType::Int,
            XsdType::Boolean,
            XsdType::Double,
            XsdType::Base64Binary,
        ] {
            let fault = refused(read("<v>not a value!</v>", "", &ty, None));
            assert!(fault.reason.contains("is not a valid xsd:"), "{fault}");
            assert_eq!(
                Rule::of(&fault),
                None,
                "the sender's fault, not a shape rule"
            );
        }
        // A base64 quantum whose padding bits are set spells nothing.
        assert!(read("<v>AQ==</v>", "", &XsdType::Base64Binary, None).is_ok());
        refused(read("<v>Ax==</v>", "", &XsdType::Base64Binary, None));
    }

    #[test]
    fn boolean_accepts_numeric_forms() {
        assert_eq!(
            read("<v>1</v>", "", &XsdType::Boolean, None).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            read("<v>0</v>", "", &XsdType::Boolean, None).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn conformance_rules() {
        assert!(Value::Int(1).conforms_to(&XsdType::Int));
        assert!(Value::Int(1).conforms_to(&XsdType::Double)); // widening ok
        assert!(!Value::Double(1.0).conforms_to(&XsdType::Int));
        assert!(Value::Null.conforms_to(&XsdType::String));
        assert!(Value::string("x").conforms_to(&XsdType::AnyType));
        assert!(
            Value::Array(vec![Value::Int(1)]).conforms_to(&XsdType::Array(Box::new(XsdType::Int)))
        );
        assert!(!Value::Array(vec![Value::string("x")])
            .conforms_to(&XsdType::Array(Box::new(XsdType::Int))));
    }

    #[test]
    fn natural_types() {
        assert_eq!(Value::Int(1).natural_type(), XsdType::Int);
        assert_eq!(
            Value::Array(vec![Value::Bool(true)]).natural_type(),
            XsdType::Array(Box::new(XsdType::Boolean))
        );
    }

    #[test]
    fn field_access() {
        let v = Value::Struct(vec![("a".into(), Value::Int(1))]);
        assert_eq!(v.field("a").unwrap().as_int(), Some(1));
        assert!(v.field("b").is_none());
        assert!(Value::Int(1).field("a").is_none());
    }
}

/// The typed decode: values read against the service schema.
#[cfg(test)]
mod decode_typed_tests {
    use super::*;
    use crate::xsd::{ComplexType, FieldDef, Schema};

    fn frame_schema() -> Schema {
        let mut schema = Schema::new();
        schema.define(
            "Frame",
            ComplexType::new(vec![
                FieldDef::new("step", XsdType::Int),
                FieldDef::optional("label", XsdType::String),
            ]),
        );
        schema.define(
            "Batch",
            ComplexType::new(vec![FieldDef::new(
                "frames",
                XsdType::Array(Box::new(XsdType::Complex("Frame".into()))),
            )]),
        );
        schema
    }

    fn read(xml: &str, ty: &str, schema: &Schema) -> Result<Value, SoapError> {
        let mut reader = PullReader::new(xml);
        assert_eq!(reader.next(), Ok(Pull::Start));
        read_value(&mut reader, "", &XsdType::Complex(ty.into()), Some(schema))
    }

    #[test]
    fn missing_required_field_is_error() {
        let err = read("<f><label>only</label></f>", "Frame", &frame_schema()).unwrap_err();
        assert!(
            matches!(&err, SoapError::Fault(f) if f.reason.contains("missing required field \"step\"")),
            "{err:?}"
        );
    }

    #[test]
    fn missing_optional_field_becomes_null() {
        // Fields in any order; the one left out is `Null`.
        let v = read("<f><step>3</step></f>", "Frame", &frame_schema()).unwrap();
        assert_eq!(v.field("step").unwrap().as_int(), Some(3));
        assert_eq!(v.field("label"), Some(&Value::Null));
        let v = read(
            "<f><label>l</label><step>3</step></f>",
            "Frame",
            &frame_schema(),
        );
        assert_eq!(v.unwrap().field("step").unwrap().as_int(), Some(3));
    }

    #[test]
    fn nested_complex_arrays_decode() {
        let batch = Value::Struct(vec![(
            "frames".into(),
            Value::Array(vec![
                Value::Struct(vec![
                    ("step".into(), Value::Int(1)),
                    ("label".into(), Value::string("a")),
                ]),
                Value::Struct(vec![
                    ("step".into(), Value::Int(2)),
                    ("label".into(), Value::string("b")),
                ]),
            ]),
        )]);
        let xml = value_element("", "b", &batch).to_xml();
        let v = read(&xml, "Batch", &frame_schema()).unwrap();
        assert_eq!(v, batch);
        // A field given twice is refused.
        let twice = xml.replacen("<step>1</step>", "<step>1</step><step>9</step>", 1);
        let err = read(&twice, "Batch", &frame_schema()).unwrap_err();
        assert!(matches!(&err, SoapError::Fault(f) if Rule::of(f) == Some(Rule::Repeated)));
    }

    #[test]
    fn unknown_complex_type_falls_back_to_untyped() {
        let v = read("<x><a>1</a></x>", "Ghost", &Schema::new()).unwrap();
        assert_eq!(v.field("a").unwrap().as_str(), Some("1"));
    }

    #[test]
    fn nil_complex_and_array_are_null() {
        let nil = format!(r#"<x xmlns:xsi="{XSI_NS}" xsi:nil="true"/>"#);
        assert_eq!(read(&nil, "Frame", &frame_schema()).unwrap(), Value::Null);
        let mut reader = PullReader::new(&nil);
        reader.next().unwrap();
        let array = XsdType::Array(Box::new(XsdType::Int));
        assert_eq!(
            read_value(&mut reader, "", &array, None).unwrap(),
            Value::Null
        );
        // Any other attribute is refused by its rule.
        let odd = nil.replace("nil=\"true\"", "nil=\"false\"");
        let err = read(&odd, "Frame", &frame_schema()).unwrap_err();
        assert!(matches!(&err, SoapError::Fault(f) if Rule::of(f) == Some(Rule::UnknownAttribute)));
    }
}
