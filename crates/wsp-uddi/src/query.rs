//! Service queries: the UDDI flavour of WSPeer's `ServiceQuery`
//! abstraction.

use crate::model::{BusinessService, KeyedReference, UDDI_NS};
use wsp_xml::Element;

/// The inquiry operation that answers a query with light summaries.
pub const FIND_SERVICE: &str = "find_service";
/// The single-exchange inquiry: `find_service`'s children in, the
/// matching records out as a `serviceDetail`.
pub const FIND_SERVICE_DETAIL: &str = "find_serviceDetail";

/// The case fold of `approximateMatch`: two names are the same name
/// exactly when their folds are equal. Matching, the registry's name
/// index and shard placement all go through this one function — they
/// must agree, or a routed query looks on a shard that cannot hold its
/// answer.
pub fn fold(name: &str) -> impl Iterator<Item = char> + Clone + '_ {
    name.chars().flat_map(char::to_lowercase)
}

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

    /// Serialise as a `find_service` element.
    pub fn to_element(&self) -> Element {
        self.to_request(FIND_SERVICE)
    }

    /// Serialise as the request element of inquiry operation `op`
    /// ([`FIND_SERVICE`] or [`FIND_SERVICE_DETAIL`]: same children).
    pub fn to_request(&self, op: &'static str) -> Element {
        let mut e = Element::new(UDDI_NS, op);
        if self.max_rows > 0 {
            e.set_attribute(wsp_xml::QName::local("maxRows"), self.max_rows.to_string());
        }
        if let Some(p) = &self.name_pattern {
            e.push_element(Element::build(UDDI_NS, "name").text(p.clone()).finish());
        }
        if !self.categories.is_empty() {
            let mut bag = Element::new(UDDI_NS, "categoryBag");
            for c in &self.categories {
                bag.push_element(c.to_element());
            }
            e.push_element(bag);
        }
        e
    }

    /// Parse a `find_service` or `find_serviceDetail` element.
    pub fn from_element(e: &Element) -> Option<ServiceQuery> {
        if !e.name().is(UDDI_NS, FIND_SERVICE) && !e.name().is(UDDI_NS, FIND_SERVICE_DETAIL) {
            return None;
        }
        Some(ServiceQuery {
            name_pattern: e.child_text(UDDI_NS, "name"),
            categories: e
                .find(UDDI_NS, "categoryBag")
                .map(|bag| {
                    bag.find_all(UDDI_NS, "keyedReference")
                        .filter_map(KeyedReference::from_element)
                        .collect()
                })
                .unwrap_or_default(),
            max_rows: e
                .attribute_local("maxRows")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
        })
    }
}

/// Case-insensitive match of `pattern` (with `%` wildcards) against
/// `text`. Classic two-pointer wildcard algorithm, no backtracking
/// blowup; both sides are read through [`fold`] as they are compared,
/// so a match allocates nothing.
pub fn wildcard_match(pattern: &str, text: &str) -> bool {
    let mut p = fold(pattern).peekable();
    let mut t = fold(text).peekable();
    // Where to resume after the last `%`: the pattern just past it, and
    // the text position the `%` has swallowed up to.
    let mut star = None;
    while let Some(&tc) = t.peek() {
        match p.peek() {
            Some(&pc) if pc == tc => {
                p.next();
                t.next();
            }
            Some('%') => {
                p.next();
                star = Some((p.clone(), t.clone()));
            }
            _ => {
                let Some((after_star, swallowed)) = &mut star else {
                    return false;
                };
                swallowed.next();
                p = after_star.clone();
                t = swallowed.clone();
            }
        }
    }
    p.all(|c| c == '%')
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
    fn query_round_trip() {
        let q = ServiceQuery::by_name("Ech%")
            .with_category(KeyedReference::new("uddi:types", "kind", "wspeer"))
            .with_max_rows(5);
        for op in [FIND_SERVICE, FIND_SERVICE_DETAIL] {
            let xml = q.to_request(op).to_xml();
            assert!(xml.contains(op));
            let parsed = ServiceQuery::from_element(&wsp_xml::parse(&xml).unwrap()).unwrap();
            assert_eq!(parsed, q);
        }
        assert_eq!(q.to_element(), q.to_request(FIND_SERVICE));
    }

    #[test]
    fn from_element_rejects_other_elements() {
        assert!(ServiceQuery::from_element(&Element::new(UDDI_NS, "find_business")).is_none());
    }
}
