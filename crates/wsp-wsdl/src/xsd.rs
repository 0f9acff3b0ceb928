//! The XML Schema subset used in WSDL `types` sections.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use wsp_xml::Element;

/// XML Schema namespace.
pub const XSD_NS: &str = "http://www.w3.org/2001/XMLSchema";

/// The types a WSPeer service signature can use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XsdType {
    Boolean,
    Int,
    Long,
    Double,
    String,
    Base64Binary,
    /// `xsd:anyType` — escape hatch for untyped payloads.
    AnyType,
    /// A sequence (`maxOccurs="unbounded"` element named `item`).
    Array(Box<XsdType>),
    /// Reference to a named complex type in the service schema.
    Complex(String),
}

impl XsdType {
    /// The `xsd:*` QName lexical form for simple types, or the local
    /// complex type name.
    pub fn type_ref(&self) -> String {
        match self {
            XsdType::Boolean => "xsd:boolean".to_owned(),
            XsdType::Int => "xsd:int".to_owned(),
            XsdType::Long => "xsd:long".to_owned(),
            XsdType::Double => "xsd:double".to_owned(),
            XsdType::String => "xsd:string".to_owned(),
            XsdType::Base64Binary => "xsd:base64Binary".to_owned(),
            XsdType::AnyType => "xsd:anyType".to_owned(),
            XsdType::Array(inner) => format!("tns:ArrayOf_{}", inner.simple_name()),
            XsdType::Complex(name) => format!("tns:{name}"),
        }
    }

    /// The unprefixed local name used inside array type names.
    fn simple_name(&self) -> String {
        match self {
            XsdType::Boolean => "boolean".to_owned(),
            XsdType::Int => "int".to_owned(),
            XsdType::Long => "long".to_owned(),
            XsdType::Double => "double".to_owned(),
            XsdType::String => "string".to_owned(),
            XsdType::Base64Binary => "base64Binary".to_owned(),
            XsdType::AnyType => "anyType".to_owned(),
            XsdType::Array(inner) => format!("ArrayOf_{}", inner.simple_name()),
            XsdType::Complex(name) => name.clone(),
        }
    }

    /// Parse a lexical type reference back into an [`XsdType`].
    pub fn from_type_ref(text: &str) -> XsdType {
        let local = text.rsplit(':').next().unwrap_or(text);
        if let Some(rest) = local.strip_prefix("ArrayOf_") {
            return XsdType::Array(Box::new(XsdType::from_type_ref(rest)));
        }
        match local {
            "boolean" => XsdType::Boolean,
            "int" | "integer" | "short" | "byte" => XsdType::Int,
            "long" => XsdType::Long,
            "double" | "float" | "decimal" => XsdType::Double,
            "string" => XsdType::String,
            "base64Binary" => XsdType::Base64Binary,
            "anyType" => XsdType::AnyType,
            other => XsdType::Complex(other.to_owned()),
        }
    }
}

impl fmt::Display for XsdType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.type_ref())
    }
}

/// One field of a complex type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDef {
    pub name: String,
    pub ty: XsdType,
    /// `minOccurs="0"` — the field may be omitted (decodes to `Null`).
    pub optional: bool,
}

impl FieldDef {
    pub fn new(name: impl Into<String>, ty: XsdType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            optional: false,
        }
    }

    pub fn optional(name: impl Into<String>, ty: XsdType) -> Self {
        FieldDef {
            name: name.into(),
            ty,
            optional: true,
        }
    }
}

/// A named complex type: an ordered sequence of fields.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ComplexType {
    pub fields: Vec<FieldDef>,
}

impl ComplexType {
    pub fn new(fields: Vec<FieldDef>) -> Self {
        ComplexType { fields }
    }
}

/// The schema section of a service description: named complex types.
/// Its clones share the types until one of them defines another, so a
/// response reader can hold its contract's schema without copying it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    pub types: Arc<BTreeMap<String, ComplexType>>,
}

impl Schema {
    pub fn new() -> Self {
        Schema::default()
    }

    pub fn define(&mut self, name: impl Into<String>, ty: ComplexType) -> &mut Self {
        Arc::make_mut(&mut self.types).insert(name.into(), ty);
        self
    }

    pub fn get(&self, name: &str) -> Option<&ComplexType> {
        self.types.get(name)
    }

    /// Render as an `xsd:schema` element for embedding in WSDL `types`.
    pub fn to_element(&self, target_ns: &str) -> Element {
        let mut schema = Element::new(XSD_NS, "schema");
        schema.set_attribute(
            wsp_xml::QName::local("targetNamespace"),
            target_ns.to_owned(),
        );
        for (name, ty) in self.types.iter() {
            let mut seq = Element::new(XSD_NS, "sequence");
            for field in &ty.fields {
                let mut el = Element::new(XSD_NS, "element");
                el.set_attribute(wsp_xml::QName::local("name"), field.name.clone());
                el.set_attribute(wsp_xml::QName::local("type"), field.ty.type_ref());
                if field.optional {
                    el.set_attribute(wsp_xml::QName::local("minOccurs"), "0");
                }
                if matches!(field.ty, XsdType::Array(_)) {
                    el.set_attribute(wsp_xml::QName::local("maxOccurs"), "unbounded");
                }
                seq.push_element(el);
            }
            let complex = Element::build(XSD_NS, "complexType")
                .attr_str("name", name.clone())
                .child(seq)
                .finish();
            schema.push_element(complex);
        }
        schema
    }

    /// Parse an `xsd:schema` element produced by [`Schema::to_element`].
    pub fn from_element(element: &Element) -> Schema {
        let mut schema = Schema::new();
        for complex in element.find_all(XSD_NS, "complexType") {
            let Some(name) = complex.attribute_local("name") else {
                continue;
            };
            let mut fields = Vec::new();
            if let Some(seq) = complex.find(XSD_NS, "sequence") {
                for el in seq.find_all(XSD_NS, "element") {
                    let Some(fname) = el.attribute_local("name") else {
                        continue;
                    };
                    let ty = el
                        .attribute_local("type")
                        .map(XsdType::from_type_ref)
                        .unwrap_or(XsdType::AnyType);
                    let optional = el.attribute_local("minOccurs") == Some("0");
                    fields.push(FieldDef {
                        name: fname.to_owned(),
                        ty,
                        optional,
                    });
                }
            }
            schema.define(name.to_owned(), ComplexType::new(fields));
        }
        schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_refs_round_trip() {
        for ty in [
            XsdType::Boolean,
            XsdType::Int,
            XsdType::Long,
            XsdType::Double,
            XsdType::String,
            XsdType::Base64Binary,
            XsdType::AnyType,
            XsdType::Array(Box::new(XsdType::String)),
            XsdType::Array(Box::new(XsdType::Array(Box::new(XsdType::Int)))),
            XsdType::Complex("Frame".into()),
        ] {
            assert_eq!(XsdType::from_type_ref(&ty.type_ref()), ty, "{ty}");
        }
    }

    #[test]
    fn foreign_integer_flavours_collapse() {
        assert_eq!(XsdType::from_type_ref("xsd:short"), XsdType::Int);
        assert_eq!(XsdType::from_type_ref("xsd:decimal"), XsdType::Double);
    }

    #[test]
    fn schema_round_trip() {
        let mut schema = Schema::new();
        schema.define(
            "Frame",
            ComplexType::new(vec![
                FieldDef::new("step", XsdType::Int),
                FieldDef::optional("label", XsdType::String),
                FieldDef::new("data", XsdType::Array(Box::new(XsdType::Double))),
            ]),
        );
        let element = schema.to_element("urn:svc");
        let xml = element.to_xml();
        let parsed = Schema::from_element(&wsp_xml::parse(&xml).unwrap());
        assert_eq!(parsed, schema);
    }

    #[test]
    fn empty_schema_round_trip() {
        let schema = Schema::new();
        let parsed = Schema::from_element(&schema.to_element("urn:svc"));
        assert!(parsed.types.is_empty());
    }

    #[test]
    fn get_looks_up_types() {
        let mut schema = Schema::new();
        schema.define("T", ComplexType::default());
        assert!(schema.get("T").is_some());
        assert!(schema.get("U").is_none());
    }
}
