//! Service queries: the UDDI flavour of WSPeer's `ServiceQuery`
//! abstraction.

use crate::model::{BusinessService, KeyedReference};
pub use wsp_soap::{fold, wildcard_match};

/// The inquiry operation that answers a query with light summaries.
pub const FIND_SERVICE: &str = "find_service";
/// The single-exchange inquiry: `find_service`'s children in, the
/// matching records out as a `serviceDetail`.
pub const FIND_SERVICE_DETAIL: &str = "find_serviceDetail";

/// A `find_service` query: name pattern plus category constraints.
///
/// The name pattern supports the UDDI `%` wildcard (match any run of
/// characters) and is case-insensitive, per `approximateMatch`
/// semantics. All listed categories must be present on a matching
/// service.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceQuery {
    pub name_pattern: Option<String>,
    pub categories: Vec<KeyedReference>,
    /// Cap on returned results (UDDI `maxRows`); 0 = unlimited.
    pub max_rows: usize,
}

impl ServiceQuery {
    /// Match services whose name matches `pattern` (`%` wildcards).
    pub fn by_name(pattern: impl Into<String>) -> Self {
        ServiceQuery {
            name_pattern: Some(pattern.into()),
            ..ServiceQuery::default()
        }
    }

    /// Match every service.
    pub fn all() -> Self {
        ServiceQuery::default()
    }

    pub fn with_category(mut self, c: KeyedReference) -> Self {
        self.categories.push(c);
        self
    }

    pub fn with_max_rows(mut self, n: usize) -> Self {
        self.max_rows = n;
        self
    }

    /// The name this query asks for, if it asks for exactly one: a
    /// pattern without a `%`. Such a query is answered from the name
    /// index, and on a sharded plane by the one shard that owns the name.
    pub fn exact_name(&self) -> Option<&str> {
        self.name_pattern.as_deref().filter(|p| !p.contains('%'))
    }

    /// Does `service` satisfy this query?
    pub fn matches(&self, service: &BusinessService) -> bool {
        if let Some(pattern) = &self.name_pattern {
            if !wildcard_match(pattern, &service.name) {
                return false;
            }
        }
        self.matches_categories(service)
    }

    /// The category half of [`ServiceQuery::matches`].
    pub fn matches_categories(&self, service: &BusinessService) -> bool {
        self.categories.iter().all(|wanted| {
            service
                .categories
                .iter()
                .any(|c| c.tmodel_key == wanted.tmodel_key && c.key_value == wanted.key_value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BindingTemplate;

    fn svc(name: &str, categories: &[(&str, &str)]) -> BusinessService {
        let mut s = BusinessService::new("k", "b", name)
            .with_binding(BindingTemplate::new("bk", "http://h/x"));
        for (tm, val) in categories {
            s = s.with_category(KeyedReference::new(*tm, "", *val));
        }
        s
    }

    #[test]
    fn wildcard_semantics() {
        assert!(wildcard_match("Echo", "echo"));
        assert!(wildcard_match("%", "anything"));
        assert!(wildcard_match("Echo%", "EchoService"));
        assert!(wildcard_match("%Service", "EchoService"));
        assert!(wildcard_match(
            "E%o%e",
            "EchoService".trim_end_matches("rvic")
        ));
        assert!(!wildcard_match("Echo", "EchoService"));
        assert!(!wildcard_match("Echo%X", "EchoService"));
        assert!(wildcard_match("", ""));
        assert!(!wildcard_match("", "x"));
        assert!(wildcard_match("%%", "x"));
    }

    #[test]
    fn matching_folds_case_beyond_ascii() {
        assert!(wildcard_match("éCHO%", "Échoservice"));
        assert!(wildcard_match("%İ", "xi\u{307}"), "a fold of two chars");
        assert!(!wildcard_match("%x", "xİ"));
        assert!(fold("StraSSe").eq("strasse".chars()));
    }

    #[test]
    fn only_a_percent_free_pattern_names_one_name() {
        assert_eq!(ServiceQuery::by_name("Echo").exact_name(), Some("Echo"));
        assert_eq!(ServiceQuery::by_name("").exact_name(), Some(""));
        assert_eq!(ServiceQuery::by_name("Ech%").exact_name(), None);
        assert_eq!(ServiceQuery::all().exact_name(), None);
    }

    #[test]
    fn name_query_matching() {
        let q = ServiceQuery::by_name("Echo%");
        assert!(q.matches(&svc("EchoService", &[])));
        assert!(!q.matches(&svc("MathService", &[])));
        assert!(ServiceQuery::all().matches(&svc("Whatever", &[])));
    }

    #[test]
    fn category_query_matching() {
        let q = ServiceQuery::all().with_category(KeyedReference::new("uddi:types", "", "wspeer"));
        assert!(q.matches(&svc("S", &[("uddi:types", "wspeer")])));
        assert!(!q.matches(&svc("S", &[("uddi:types", "other")])));
        assert!(!q.matches(&svc("S", &[])));
        // All categories required.
        let q2 = q.with_category(KeyedReference::new("uddi:region", "", "eu"));
        assert!(!q2.matches(&svc("S", &[("uddi:types", "wspeer")])));
        assert!(q2.matches(&svc(
            "S",
            &[("uddi:types", "wspeer"), ("uddi:region", "eu")]
        )));
    }

    #[test]
    /// Both inquiries carry the query under their own root. That the
    /// bytes are the tree writer's is `typed_codec.rs`'s
    /// `registry_documents_are_written_and_read_alike`.
    fn query_round_trip() {
        use crate::model::UDDI_NS;
        use crate::wire::{read_request, write_request, UddiOp, UddiRequest};
        use std::borrow::Cow;
        let q = ServiceQuery::by_name("Ech%")
            .with_category(KeyedReference::new("uddi:types", "kind", "wspeer"))
            .with_max_rows(5);
        let detail = UddiOp::FindServiceDetail(Cow::Borrowed(&q));
        for op in [UddiOp::FindService(Cow::Borrowed(&q)), detail] {
            let (_, local) = op.name();
            let request = UddiRequest::new(op);
            let mut xml = Vec::new();
            write_request(&request, &mut xml);
            let xml = String::from_utf8(xml).unwrap();
            let envelope = wsp_soap::Envelope::from_xml(&xml).unwrap();
            let root = envelope.payload().unwrap();
            assert!(root.name().is(UDDI_NS, local), "{xml}");
            assert_eq!(root.attribute_local("maxRows"), Some("5"));
            assert_eq!(read_request(&xml), Some(Ok(request)));
        }
    }
}
