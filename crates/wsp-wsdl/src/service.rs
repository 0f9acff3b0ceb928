//! Service descriptors and handlers: the application-facing contract.
//!
//! A [`ServiceDescriptor`] is the "code source" of the paper's deployment
//! story: WSPeer generates a WSDL interface description from it and
//! creates an addressable endpoint for it. A [`ServiceHandler`] is the
//! application object the service fronts — possibly a *stateful* object,
//! and via [`OperationRouter`] each operation can map to a different
//! object in memory (Section III, point 3).

use crate::value::Value;
use crate::xsd::{Schema, XsdType};
use std::collections::HashMap;
use std::sync::Arc;
use wsp_soap::Fault;

/// One named, typed parameter; an optional one decodes to
/// `Value::Null` when absent. The same three things as a field of a
/// complex type, and read off the wire by the same code.
pub type Param = crate::xsd::FieldDef;

/// One operation: a name, input parameters and an optional output.
/// `output: None` models a WSDL one-way operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OperationDef {
    pub name: String,
    pub inputs: Vec<Param>,
    pub output: Option<Param>,
    pub documentation: Option<String>,
}

impl OperationDef {
    pub fn new(name: impl Into<String>) -> Self {
        OperationDef {
            name: name.into(),
            inputs: Vec::new(),
            output: None,
            documentation: None,
        }
    }

    pub fn input(mut self, name: impl Into<String>, ty: XsdType) -> Self {
        self.inputs.push(Param::new(name, ty));
        self
    }

    pub fn optional_input(mut self, name: impl Into<String>, ty: XsdType) -> Self {
        self.inputs.push(Param::optional(name, ty));
        self
    }

    pub fn returns(mut self, ty: XsdType) -> Self {
        self.output = Some(Param::new("return", ty));
        self
    }

    pub fn one_way(mut self) -> Self {
        self.output = None;
        self
    }

    pub fn doc(mut self, text: impl Into<String>) -> Self {
        self.documentation = Some(text.into());
        self
    }

    /// True if a reply message is expected.
    pub fn expects_response(&self) -> bool {
        self.output.is_some()
    }
}

/// The full public contract of a service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDescriptor {
    /// Service name; becomes the WSDL `service`/`portType` names and the
    /// path component of the service URI.
    pub name: String,
    /// Target namespace of the service's messages.
    pub namespace: String,
    pub operations: Vec<OperationDef>,
    pub schema: Schema,
    pub documentation: Option<String>,
    /// Discovery metadata: published as UDDI categories or P2PS
    /// attributes (not part of the WSDL contract).
    pub properties: Vec<(String, String)>,
}

impl ServiceDescriptor {
    pub fn new(name: impl Into<String>, namespace: impl Into<String>) -> Self {
        ServiceDescriptor {
            name: name.into(),
            namespace: namespace.into(),
            operations: Vec::new(),
            schema: Schema::new(),
            documentation: None,
            properties: Vec::new(),
        }
    }

    /// Attach discovery metadata (UDDI category / P2PS attribute).
    pub fn property(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.properties.push((key.into(), value.into()));
        self
    }

    pub fn operation(mut self, op: OperationDef) -> Self {
        self.operations.push(op);
        self
    }

    pub fn with_schema(mut self, schema: Schema) -> Self {
        self.schema = schema;
        self
    }

    pub fn doc(mut self, text: impl Into<String>) -> Self {
        self.documentation = Some(text.into());
        self
    }

    /// Look up an operation by name.
    pub fn find_operation(&self, name: &str) -> Option<&OperationDef> {
        self.operations.iter().find(|o| o.name == name)
    }

    /// The `Action` URI for an operation at a given endpoint address,
    /// following the paper's scheme: address + `#` + operation.
    pub fn action_uri(&self, endpoint: &str, operation: &str) -> String {
        format!("{endpoint}#{operation}")
    }

    /// A digest of the interface: everything the generated WSDL carries
    /// but the service's name — namespace, documentation, properties,
    /// schema and operations. FNV-1a 64 over a length-prefixed encoding
    /// of those fields, so it is the same in every process and build: a
    /// publisher puts it in a registry record, and a consumer compares
    /// it with the digest of a description it already holds.
    pub fn interface_digest(&self) -> u64 {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        h.str(&self.namespace);
        h.opt_str(self.documentation.as_deref());
        h.len(self.properties.len());
        for (key, value) in &self.properties {
            h.str(key);
            h.str(value);
        }
        h.len(self.schema.types.len());
        for (name, ty) in self.schema.types.iter() {
            h.str(name);
            h.params(&ty.fields);
        }
        h.len(self.operations.len());
        for op in &self.operations {
            h.str(&op.name);
            h.params(&op.inputs);
            h.params(op.output.as_slice());
            h.opt_str(op.documentation.as_deref());
        }
        h.0
    }

    /// The classic demo service used throughout the paper's examples:
    /// `Echo` with an `echoString` operation.
    pub fn echo() -> Self {
        ServiceDescriptor::new("Echo", "urn:wspeer:echo")
            .doc("Echoes its input string back to the caller")
            .operation(
                OperationDef::new("echoString")
                    .input("text", XsdType::String)
                    .returns(XsdType::String),
            )
    }
}

/// FNV-1a 64, fed length-prefixed fields: no two distinct sequences of
/// fields feed it the same bytes.
struct Fnv1a(u64);

impl Fnv1a {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn len(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }

    fn opt_str(&mut self, s: Option<&str>) {
        self.bytes(&[u8::from(s.is_some())]);
        self.str(s.unwrap_or_default());
    }

    /// Each parameter as the WSDL writes it: name, type reference,
    /// optionality.
    fn params(&mut self, params: &[Param]) {
        self.len(params.len());
        for param in params {
            self.str(&param.name);
            self.str(&param.ty.type_ref());
            self.bytes(&[u8::from(param.optional)]);
        }
    }
}

/// The application side of a deployed service.
///
/// Handlers receive decoded argument values in declaration order and
/// return a result value (ignored for one-way operations) or a fault.
/// Implementations may hold arbitrary state — that is the point of
/// WSPeer's "the component becomes its own container" model.
pub trait ServiceHandler: Send + Sync {
    fn invoke(&self, operation: &str, args: &[Value]) -> Result<Value, Fault>;
}

impl<F> ServiceHandler for F
where
    F: Fn(&str, &[Value]) -> Result<Value, Fault> + Send + Sync,
{
    fn invoke(&self, operation: &str, args: &[Value]) -> Result<Value, Fault> {
        self(operation, args)
    }
}

/// Routes each operation to its own handler object, so one service can
/// front several stateful objects in memory (paper Section III: "each
/// operation given to the service can map to a different stateful object").
#[derive(Default)]
pub struct OperationRouter {
    routes: HashMap<String, Arc<dyn ServiceHandler>>,
    fallback: Option<Arc<dyn ServiceHandler>>,
}

impl OperationRouter {
    pub fn new() -> Self {
        OperationRouter::default()
    }

    /// Route `operation` to `handler`.
    pub fn route(mut self, operation: impl Into<String>, handler: Arc<dyn ServiceHandler>) -> Self {
        self.routes.insert(operation.into(), handler);
        self
    }

    /// Route a single operation to a closure over some captured object.
    pub fn route_fn<F>(self, operation: impl Into<String>, f: F) -> Self
    where
        F: Fn(&[Value]) -> Result<Value, Fault> + Send + Sync + 'static,
    {
        struct OpFn<F>(F);
        impl<F> ServiceHandler for OpFn<F>
        where
            F: Fn(&[Value]) -> Result<Value, Fault> + Send + Sync,
        {
            fn invoke(&self, _operation: &str, args: &[Value]) -> Result<Value, Fault> {
                (self.0)(args)
            }
        }
        self.route(operation, Arc::new(OpFn(f)))
    }

    /// Handler consulted for operations with no explicit route.
    pub fn fallback(mut self, handler: Arc<dyn ServiceHandler>) -> Self {
        self.fallback = Some(handler);
        self
    }
}

impl ServiceHandler for OperationRouter {
    fn invoke(&self, operation: &str, args: &[Value]) -> Result<Value, Fault> {
        match self.routes.get(operation).or(self.fallback.as_ref()) {
            Some(h) => h.invoke(operation, args),
            None => Err(Fault::sender(format!(
                "no handler for operation {operation:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_descriptor_shape() {
        let d = ServiceDescriptor::echo();
        let op = d.find_operation("echoString").unwrap();
        assert_eq!(op.inputs.len(), 1);
        assert!(op.expects_response());
        assert!(d.find_operation("missing").is_none());
    }

    #[test]
    fn action_uri_uses_fragment() {
        let d = ServiceDescriptor::echo();
        assert_eq!(
            d.action_uri("p2ps://1234/Echo", "echoString"),
            "p2ps://1234/Echo#echoString"
        );
    }

    /// The digest covers the interface, not the name, and is pinned: a
    /// publisher and a consumer in different processes or builds compute
    /// the same one.
    #[test]
    fn interface_digest_ignores_the_name_and_nothing_else() {
        let echo = ServiceDescriptor::echo();
        assert_eq!(echo.interface_digest(), 0x043f_75f9_d529_a221);
        let renamed = ServiceDescriptor {
            name: "Other".into(),
            ..echo.clone()
        };
        assert_eq!(renamed.interface_digest(), echo.interface_digest());
        let mut schema = crate::xsd::Schema::new();
        schema.define("T", crate::xsd::ComplexType::default());
        let variants = [
            ServiceDescriptor::new("Echo", "urn:other"),
            echo.clone().doc("other"),
            echo.clone().property("k", "v"),
            echo.clone().with_schema(schema),
            echo.clone().operation(OperationDef::new("stop").one_way()),
            echo.clone()
                .operation(OperationDef::new("f").optional_input("x", XsdType::Int)),
            echo.clone()
                .operation(OperationDef::new("f").input("x", XsdType::Int)),
            echo.clone().operation(
                OperationDef::new("f").input("x", XsdType::Array(Box::new(XsdType::Int))),
            ),
        ];
        let mut seen = vec![echo.interface_digest()];
        for variant in &variants {
            let digest = variant.interface_digest();
            assert!(!seen.contains(&digest), "{variant:?}");
            seen.push(digest);
        }
    }

    #[test]
    fn closures_are_handlers() {
        let h = |op: &str, args: &[Value]| -> Result<Value, Fault> {
            assert_eq!(op, "f");
            Ok(args[0].clone())
        };
        assert_eq!(h.invoke("f", &[Value::Int(3)]).unwrap(), Value::Int(3));
    }

    #[test]
    fn router_dispatches_per_operation() {
        let router = OperationRouter::new()
            .route_fn("a", |_| Ok(Value::string("from-a")))
            .route_fn("b", |_| Ok(Value::string("from-b")));
        assert_eq!(router.invoke("a", &[]).unwrap(), Value::string("from-a"));
        assert_eq!(router.invoke("b", &[]).unwrap(), Value::string("from-b"));
        let err = router.invoke("c", &[]).unwrap_err();
        assert!(err.reason.contains("c"));
    }

    #[test]
    fn router_fallback() {
        let router = OperationRouter::new().fallback(Arc::new(
            |op: &str, _args: &[Value]| -> Result<Value, Fault> {
                Ok(Value::string(format!("fallback:{op}")))
            },
        ));
        assert_eq!(
            router.invoke("x", &[]).unwrap(),
            Value::string("fallback:x")
        );
    }

    #[test]
    fn stateful_handler_mutates_captured_state() {
        use std::sync::atomic::{AtomicI64, Ordering};
        let counter = Arc::new(AtomicI64::new(0));
        let c = counter.clone();
        let router = OperationRouter::new().route_fn("inc", move |_| {
            Ok(Value::Int(c.fetch_add(1, Ordering::SeqCst) + 1))
        });
        assert_eq!(router.invoke("inc", &[]).unwrap(), Value::Int(1));
        assert_eq!(router.invoke("inc", &[]).unwrap(), Value::Int(2));
        assert_eq!(counter.load(Ordering::SeqCst), 2);
    }
}
