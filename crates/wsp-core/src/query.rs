//! WSPeer's `ServiceQuery` abstraction: one query shape, translated to
//! whatever the plugged-in locator speaks (UDDI categories, P2PS
//! attributes, …).
//!
//! "A ServiceQuery is an abstraction used by WSPeer to allow for
//! varying kinds of query. The simplest ServiceQuery queries on the
//! name of a service" (Section III).

/// A binding-neutral service query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceQuery {
    /// Name pattern with `%` wildcards, case-insensitive.
    pub name_pattern: Option<String>,
    /// Key/value constraints: UDDI category bags or P2PS attributes.
    pub properties: Vec<(String, String)>,
    /// Cap on results; 0 = no cap. Over HTTP/UDDI it is the registry's
    /// `maxRows`. Over P2PS a capped locate returns once it has located
    /// that many services — counted after their definition pipes have
    /// answered, not as adverts — instead of waiting out the discovery
    /// window, which stays the bound on its wait for hits.
    pub max_results: usize,
}

impl ServiceQuery {
    /// The simplest query: by service name.
    pub fn by_name(pattern: impl Into<String>) -> Self {
        ServiceQuery {
            name_pattern: Some(pattern.into()),
            ..ServiceQuery::default()
        }
    }

    /// Match anything (browse).
    pub fn any() -> Self {
        ServiceQuery::default()
    }

    pub fn with_property(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.properties.push((key.into(), value.into()));
        self
    }

    pub fn with_max_results(mut self, n: usize) -> Self {
        self.max_results = n;
        self
    }

    /// Translate for a UDDI-conversant locator. Properties become
    /// keyed references in a conventional WSPeer category tModel.
    pub fn to_uddi(&self) -> wsp_uddi::ServiceQuery {
        let mut query = wsp_uddi::ServiceQuery {
            name_pattern: self.name_pattern.clone(),
            categories: Vec::new(),
            max_rows: self.max_results,
        };
        for (key, value) in &self.properties {
            query.categories.push(wsp_uddi::KeyedReference::new(
                format!("uuid:wspeer:attr:{key}"),
                key.clone(),
                value.clone(),
            ));
        }
        query
    }

    /// Translate for a P2PS locator.
    pub fn to_p2ps(&self) -> wsp_p2ps::P2psQuery {
        wsp_p2ps::P2psQuery {
            name_pattern: self.name_pattern.clone(),
            attributes: self.properties.clone(),
        }
    }
}

/// The inverse mapping used when *publishing*: properties become UDDI
/// categories with the same convention `to_uddi` queries against.
pub fn properties_to_uddi_categories(
    properties: &[(String, String)],
) -> Vec<wsp_uddi::KeyedReference> {
    properties
        .iter()
        .map(|(key, value)| {
            wsp_uddi::KeyedReference::new(
                format!("uuid:wspeer:attr:{key}"),
                key.clone(),
                value.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uddi_translation_preserves_name_and_limit() {
        let q = ServiceQuery::by_name("Echo%").with_max_results(5);
        let uddi = q.to_uddi();
        assert_eq!(uddi.name_pattern.as_deref(), Some("Echo%"));
        assert_eq!(uddi.max_rows, 5);
    }

    #[test]
    fn properties_round_trip_through_uddi_convention() {
        let q = ServiceQuery::any().with_property("domain", "demo");
        let uddi_query = q.to_uddi();
        let categories = properties_to_uddi_categories(&q.properties);
        // A service published with these categories matches the query.
        let service =
            wsp_uddi::BusinessService::new("k", "b", "S").with_category(categories[0].clone());
        assert!(uddi_query.matches(&service));
        // And a differently-valued property does not.
        let other = wsp_uddi::BusinessService::new("k", "b", "S").with_category(
            wsp_uddi::KeyedReference::new("uuid:wspeer:attr:domain", "domain", "prod"),
        );
        assert!(!uddi_query.matches(&other));
    }

    #[test]
    fn p2ps_translation_preserves_everything() {
        let q = ServiceQuery::by_name("Cactus%").with_property("step", "7");
        let p2ps = q.to_p2ps();
        assert_eq!(p2ps.name_pattern.as_deref(), Some("Cactus%"));
        assert_eq!(p2ps.attributes, vec![("step".to_string(), "7".to_string())]);
    }

    #[test]
    fn same_query_drives_both_worlds() {
        // The point of the abstraction: one query object, two targets.
        let q = ServiceQuery::by_name("Echo");
        let advert = wsp_p2ps::ServiceAdvertisement::new("Echo", wsp_p2ps::PeerId(1));
        assert!(q.to_p2ps().matches(&advert));
        let record = wsp_uddi::BusinessService::new("k", "b", "Echo");
        assert!(q.to_uddi().matches(&record));
    }
}

/// A composable query expression — the "more complex queries" the paper
/// anticipates ("could be constructed from languages such as DAML")
/// layered over the simple [`ServiceQuery`].
///
/// Evaluation is two-phase: [`QueryExpr::base_query`] derives a sound
/// over-approximation that the binding's native mechanism (UDDI match,
/// P2PS flood) can execute, and the client refines the results against
/// the full expression using the name and discovery properties carried
/// in each located service's WSDL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryExpr {
    /// Service name matches this `%`-wildcard pattern.
    Name(String),
    /// Discovery property `key` equals `value`.
    Property(String, String),
    /// All sub-expressions hold.
    And(Vec<QueryExpr>),
    /// At least one sub-expression holds.
    Or(Vec<QueryExpr>),
    /// The sub-expression does not hold.
    Not(Box<QueryExpr>),
}

impl QueryExpr {
    pub fn name(pattern: impl Into<String>) -> QueryExpr {
        QueryExpr::Name(pattern.into())
    }

    pub fn property(key: impl Into<String>, value: impl Into<String>) -> QueryExpr {
        QueryExpr::Property(key.into(), value.into())
    }

    pub fn and(self, other: QueryExpr) -> QueryExpr {
        match self {
            QueryExpr::And(mut xs) => {
                xs.push(other);
                QueryExpr::And(xs)
            }
            x => QueryExpr::And(vec![x, other]),
        }
    }

    pub fn or(self, other: QueryExpr) -> QueryExpr {
        match self {
            QueryExpr::Or(mut xs) => {
                xs.push(other);
                QueryExpr::Or(xs)
            }
            x => QueryExpr::Or(vec![x, other]),
        }
    }

    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> QueryExpr {
        QueryExpr::Not(Box::new(self))
    }

    /// Evaluate against a service's name and discovery properties.
    pub fn matches(&self, name: &str, properties: &[(String, String)]) -> bool {
        match self {
            QueryExpr::Name(pattern) => wsp_uddi::wildcard_match(pattern, name),
            QueryExpr::Property(key, value) => {
                properties.iter().any(|(k, v)| k == key && v == value)
            }
            QueryExpr::And(xs) => xs.iter().all(|x| x.matches(name, properties)),
            QueryExpr::Or(xs) => xs.iter().any(|x| x.matches(name, properties)),
            QueryExpr::Not(x) => !x.matches(name, properties),
        }
    }

    /// A [`ServiceQuery`] that matches a superset of this expression —
    /// what gets pushed down to the binding's native search. Only
    /// top-level conjuncts can be pushed soundly; anything under `Or`
    /// or `Not` falls back to match-everything.
    pub fn base_query(&self) -> ServiceQuery {
        let mut base = ServiceQuery::any();
        match self {
            QueryExpr::Name(pattern) => base.name_pattern = Some(pattern.clone()),
            QueryExpr::Property(key, value) => base.properties.push((key.clone(), value.clone())),
            QueryExpr::And(xs) => {
                for x in xs {
                    match x {
                        QueryExpr::Name(pattern) if base.name_pattern.is_none() => {
                            base.name_pattern = Some(pattern.clone());
                        }
                        QueryExpr::Property(key, value) => {
                            base.properties.push((key.clone(), value.clone()));
                        }
                        _ => {} // nested Or/Not: cannot push down
                    }
                }
            }
            QueryExpr::Or(_) | QueryExpr::Not(_) => {}
        }
        base
    }
}

#[cfg(test)]
mod expr_tests {
    use super::*;

    fn props(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn leaf_evaluation() {
        let p = props(&[("domain", "demo")]);
        assert!(QueryExpr::name("Echo%").matches("EchoService", &p));
        assert!(!QueryExpr::name("Echo").matches("EchoService", &p));
        assert!(QueryExpr::property("domain", "demo").matches("X", &p));
        assert!(!QueryExpr::property("domain", "prod").matches("X", &p));
    }

    #[test]
    fn boolean_combinators() {
        let p = props(&[("domain", "demo"), ("tier", "gold")]);
        let expr = QueryExpr::name("E%")
            .and(QueryExpr::property("domain", "demo"))
            .and(QueryExpr::property("tier", "silver").or(QueryExpr::property("tier", "gold")));
        assert!(expr.matches("Echo", &p));
        let negated = QueryExpr::property("domain", "demo").not();
        assert!(!negated.matches("Echo", &p));
        assert!(negated.matches("Echo", &props(&[("domain", "prod")])));
    }

    #[test]
    fn base_query_pushes_down_conjuncts() {
        let expr = QueryExpr::name("Echo%")
            .and(QueryExpr::property("domain", "demo"))
            .and(QueryExpr::property("x", "1").or(QueryExpr::property("x", "2")));
        let base = expr.base_query();
        assert_eq!(base.name_pattern.as_deref(), Some("Echo%"));
        assert_eq!(base.properties.len(), 1); // only the pure conjunct
    }

    #[test]
    fn base_query_is_sound_overapproximation() {
        // Everything the expression matches, the base query matches too.
        let expr = QueryExpr::name("E%").or(QueryExpr::property("a", "b"));
        let base = expr.base_query();
        assert_eq!(base, ServiceQuery::any());
        let negated = QueryExpr::name("E%").not();
        assert_eq!(negated.base_query(), ServiceQuery::any());
    }
}
