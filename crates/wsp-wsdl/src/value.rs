//! The dynamic value model used on both sides of an invocation.
//!
//! Axis maps SOAP payloads onto Java objects via generated stubs; the
//! Rust equivalent (see `DESIGN.md`) is a small dynamically-typed value
//! tree validated against the WSDL schema at call time. `Value` is what
//! application handlers receive as arguments and return as results.

use crate::base64;
use crate::xsd::{FieldDef, Schema, XsdType};
use std::borrow::Cow;
use std::fmt;
use wsp_soap::typed::{next_tag, read_text};
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

    /// Decode an element's contents as `expected`.
    ///
    /// Complex (`Complex`) types must be resolved by the caller (the
    /// schema layer) before calling this; here they decode as structs of
    /// whatever children are present.
    pub fn decode(element: &Element, expected: &XsdType) -> Result<Value, ValueError> {
        if element.attribute(XSI_NS, "nil") == Some("true") {
            return Ok(Value::Null);
        }
        let content = element.text_ref();
        match expected {
            XsdType::String => Ok(Value::String(content.into_owned())),
            XsdType::Array(item_ty) => {
                let mut items = Vec::new();
                for child in element.child_elements() {
                    items.push(Value::decode(child, item_ty)?);
                }
                Ok(Value::Array(items))
            }
            XsdType::AnyType | XsdType::Complex(_) => Ok(Value::decode_untyped(element)),
            simple => {
                let text = content.trim();
                Value::from_lexical(simple, text).ok_or_else(|| ValueError::BadLexical {
                    ty: match simple {
                        XsdType::Boolean => "boolean",
                        XsdType::Double => "double",
                        XsdType::Base64Binary => "base64Binary",
                        _ => "integer",
                    },
                    text: text.to_owned(),
                })
            }
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

    /// Best-effort decode with no schema: elements with children become
    /// structs (or arrays when every child is named `item`), leaves
    /// become strings.
    pub fn decode_untyped(element: &Element) -> Value {
        let children: Vec<&Element> = element.child_elements().collect();
        if children.is_empty() {
            return Value::String(element.text());
        }
        if children.iter().all(|c| c.name().local_name() == "item") {
            return Value::Array(children.into_iter().map(Value::decode_untyped).collect());
        }
        Value::Struct(
            children
                .into_iter()
                .map(|c| (c.name().local_name().to_owned(), Value::decode_untyped(c)))
                .collect(),
        )
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

/// Decode an element against `ty`, resolving named complex types through
/// `schema`: struct fields are decoded per their declared types, missing
/// optional fields become `Null`, and missing required fields are errors.
pub fn decode_typed(
    element: &Element,
    ty: &XsdType,
    schema: &crate::xsd::Schema,
) -> Result<Value, ValueError> {
    match ty {
        XsdType::Complex(name) => {
            let Some(complex) = schema.get(name) else {
                // Unknown named type: fall back to the untyped heuristic.
                return Ok(Value::decode_untyped(element));
            };
            if is_nil(element) {
                return Ok(Value::Null);
            }
            let mut fields = Vec::with_capacity(complex.fields.len());
            for field in &complex.fields {
                match element.find_local(&field.name) {
                    Some(child) => {
                        fields.push((field.name.clone(), decode_typed(child, &field.ty, schema)?))
                    }
                    None if field.optional => fields.push((field.name.clone(), Value::Null)),
                    None => {
                        return Err(ValueError::MissingField {
                            ty: name.clone(),
                            field: field.name.clone(),
                        })
                    }
                }
            }
            Ok(Value::Struct(fields))
        }
        XsdType::Array(item_ty) => {
            if is_nil(element) {
                return Ok(Value::Null);
            }
            let mut items = Vec::new();
            for child in element.child_elements() {
                items.push(decode_typed(child, item_ty, schema)?);
            }
            Ok(Value::Array(items))
        }
        simple => Value::decode(element, simple),
    }
}

/// Errors produced while decoding values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    BadLexical { ty: &'static str, text: String },
    MissingField { ty: String, field: String },
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::BadLexical { ty, text } => {
                write!(f, "{text:?} is not a valid xsd:{ty}")
            }
            ValueError::MissingField { ty, field } => {
                write!(f, "complex type {ty} is missing required field {field:?}")
            }
        }
    }
}

impl std::error::Error for ValueError {}

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
/// end tag, as `expected` — what [`decode_typed`] makes of its tree
/// when there is a `schema`, what [`Value::decode`] makes of it when
/// there is none. `None` where the tree decoders fail, and for the
/// shapes this reader leaves to them: an attribute other than
/// `xsi:nil="true"`, a nil element with content, text beside child
/// elements, struct fields repeated or out of declaration order, a
/// complex type the schema does not define.
pub fn read_value(
    reader: &mut PullReader<'_>,
    expected: &XsdType,
    schema: Option<&Schema>,
) -> Option<Value> {
    let complex = match (expected, schema) {
        (XsdType::Complex(name), Some(schema)) => Some(schema.get(name)?),
        _ => None,
    };
    if reader.attribute_count() > 0 {
        let mut nil = true;
        reader
            .attributes(|ns, local, value| nil &= (ns, local, &*value) == (XSI_NS, "nil", "true"));
        let only = nil && reader.attribute_count() == 1;
        return (only && reader.next().ok()? == Pull::End).then_some(Value::Null);
    }
    Some(match expected {
        XsdType::Array(item) => {
            let mut items = Vec::new();
            while next_tag(reader)? == Pull::Start {
                items.push(read_value(reader, item, schema)?);
            }
            Value::Array(items)
        }
        XsdType::AnyType | XsdType::Complex(_) => match complex {
            Some(complex) => {
                let values = read_members(reader, &complex.fields, None, schema)?;
                let names = complex.fields.iter().map(|f| f.name.clone());
                Value::Struct(names.zip(values).collect())
            }
            None => read_untyped(reader)?,
        },
        XsdType::String => Value::String(read_text(reader)?.into_owned()),
        simple => Value::from_lexical(simple, read_text(reader)?.trim())?,
    })
}

/// [`Value::decode_untyped`] off the cursor. Attributes decline, since
/// the tree decoder does not look at them — `xsi:nil` included.
fn read_untyped(reader: &mut PullReader<'_>) -> Option<Value> {
    let mut text = String::new();
    let mut children = Vec::new();
    loop {
        match reader.next().ok()? {
            Pull::Text(run) => text.push_str(&run),
            Pull::Start if reader.attribute_count() == 0 => {
                children.push((reader.local_name().to_owned(), read_untyped(reader)?));
            }
            Pull::End => break,
            Pull::Start | Pull::Eof => return None,
        }
    }
    Some(if children.is_empty() {
        Value::String(text)
    } else if !text.trim().is_empty() {
        return None;
    } else if children.iter().all(|(name, _)| name == "item") {
        Value::Array(children.into_iter().map(|(_, value)| value).collect())
    } else {
        Value::Struct(children)
    })
}

/// Read the children of the element the cursor is in, through its end
/// tag, as `members` — an operation's parameters (in `ns`) or a complex
/// type's fields (in any namespace): one value per member, `Null` for
/// an optional one left out. Declined: a child that is not the next
/// member or a later one (repeated, out of order, unknown); a required
/// member left out; members sharing a name (the tree decoders give
/// them all the first child of that name).
pub fn read_members(
    reader: &mut PullReader<'_>,
    members: &[FieldDef],
    ns: Option<&str>,
    schema: Option<&Schema>,
) -> Option<Vec<Value>> {
    let shared = |(i, m): (usize, &FieldDef)| members[..i].iter().any(|e| e.name == m.name);
    if members.iter().enumerate().any(shared) {
        return None;
    }
    let mut values = Vec::with_capacity(members.len());
    while next_tag(reader)? == Pull::Start {
        let local = reader.local_name();
        if ns.is_some_and(|ns| !reader.is(ns, local)) {
            return None;
        }
        let found = members[values.len()..]
            .iter()
            .position(|m| m.name == local)?;
        let at = values.len() + found;
        if members[values.len()..at].iter().any(|m| !m.optional) {
            return None;
        }
        values.resize(at, Value::Null);
        values.push(read_value(reader, &members[at].ty, schema)?);
    }
    let rest = &members[values.len()..];
    rest.iter().all(|m| m.optional).then(|| {
        values.resize(members.len(), Value::Null);
        values
    })
}

/// True if the element is marked `xsi:nil`.
pub fn is_nil(element: &Element) -> bool {
    element.attribute(XSI_NS, "nil") == Some("true")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: &Value, ty: &XsdType) -> Value {
        let e = value_element("urn:t", "v", value);
        let xml = e.to_xml();
        let parsed = wsp_xml::parse(&xml).unwrap();
        Value::decode(&parsed, ty).unwrap()
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
        let e = value_element("urn:t", "v", &v);
        let parsed = wsp_xml::parse(&e.to_xml()).unwrap();
        assert_eq!(Value::decode_untyped(&parsed), v);
    }

    #[test]
    fn nested_struct_with_array() {
        let v = Value::Struct(vec![(
            "frames".into(),
            Value::Array(vec![Value::string("a"), Value::string("b")]),
        )]);
        let e = value_element("urn:t", "v", &v);
        let parsed = wsp_xml::parse(&e.to_xml()).unwrap();
        let got = Value::decode_untyped(&parsed);
        // Untyped arrays inside structs decode as struct field with array.
        assert_eq!(got.field("frames").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn bad_lexical_forms_rejected() {
        let e = wsp_xml::parse("<v>not a value!</v>").unwrap();
        assert!(Value::decode(&e, &XsdType::Int).is_err());
        assert!(Value::decode(&e, &XsdType::Boolean).is_err());
        assert!(Value::decode(&e, &XsdType::Double).is_err());
        assert!(Value::decode(&e, &XsdType::Base64Binary).is_err());
    }

    #[test]
    fn boolean_accepts_numeric_forms() {
        let e = wsp_xml::parse("<v>1</v>").unwrap();
        assert_eq!(
            Value::decode(&e, &XsdType::Boolean).unwrap(),
            Value::Bool(true)
        );
        let e = wsp_xml::parse("<v>0</v>").unwrap();
        assert_eq!(
            Value::decode(&e, &XsdType::Boolean).unwrap(),
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

    #[test]
    fn missing_required_field_is_error() {
        let e = wsp_xml::parse(r#"<f><label>only</label></f>"#).unwrap();
        let err = decode_typed(&e, &XsdType::Complex("Frame".into()), &frame_schema()).unwrap_err();
        assert!(matches!(err, ValueError::MissingField { field, .. } if field == "step"));
    }

    #[test]
    fn missing_optional_field_becomes_null() {
        let e = wsp_xml::parse(r#"<f><step>3</step></f>"#).unwrap();
        let v = decode_typed(&e, &XsdType::Complex("Frame".into()), &frame_schema()).unwrap();
        assert_eq!(v.field("step").unwrap().as_int(), Some(3));
        assert_eq!(v.field("label"), Some(&Value::Null));
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
        let e = value_element("urn:t", "b", &batch);
        let parsed = wsp_xml::parse(&e.to_xml()).unwrap();
        let v = decode_typed(&parsed, &XsdType::Complex("Batch".into()), &frame_schema()).unwrap();
        let frames = v.field("frames").unwrap().as_array().unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[1].field("step").unwrap().as_int(), Some(2));
    }

    #[test]
    fn unknown_complex_type_falls_back_to_untyped() {
        let e = wsp_xml::parse(r#"<x><a>1</a></x>"#).unwrap();
        let v = decode_typed(&e, &XsdType::Complex("Ghost".into()), &Schema::new()).unwrap();
        assert_eq!(v.field("a").unwrap().as_str(), Some("1"));
    }

    #[test]
    fn nil_complex_and_array_are_null() {
        let e = wsp_xml::parse(&format!(r#"<x xmlns:xsi="{XSI_NS}" xsi:nil="true"/>"#)).unwrap();
        assert_eq!(
            decode_typed(&e, &XsdType::Complex("Frame".into()), &frame_schema()).unwrap(),
            Value::Null
        );
        assert_eq!(
            decode_typed(&e, &XsdType::Array(Box::new(XsdType::Int)), &frame_schema()).unwrap(),
            Value::Null
        );
    }
}
