//! P2PS queries: name- and attribute-based search over service
//! advertisements.
//!
//! The paper chose P2PS precisely because "the P2PS search mechanism can
//! be extended to support attribute-based search, as opposed to the
//! key-based search employed by DHT systems".

use crate::advert::ServiceAdvertisement;
use wsp_soap::wildcard_match;

/// A query against published service advertisements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct P2psQuery {
    /// Name pattern with `%` wildcards, case-insensitive. `None`
    /// matches any name.
    pub name_pattern: Option<String>,
    /// Attribute constraints; all must be present with equal values.
    pub attributes: Vec<(String, String)>,
}

impl P2psQuery {
    pub fn by_name(pattern: impl Into<String>) -> Self {
        P2psQuery {
            name_pattern: Some(pattern.into()),
            attributes: Vec::new(),
        }
    }

    pub fn any() -> Self {
        P2psQuery::default()
    }

    pub fn with_attribute(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((key.into(), value.into()));
        self
    }

    /// Does `advert` satisfy this query?
    pub fn matches(&self, advert: &ServiceAdvertisement) -> bool {
        if let Some(pattern) = &self.name_pattern {
            if !wildcard_match(pattern, &advert.name) {
                return false;
            }
        }
        self.attributes
            .iter()
            .all(|(k, v)| advert.attribute(k) == Some(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::PeerId;
    use crate::P2psMessage;

    /// `query` sent in a `QueryMsg` and read back.
    fn over_the_wire(query: &P2psQuery) -> Option<P2psQuery> {
        let message = P2psMessage::Query {
            id: 1,
            origin: PeerId(2),
            query: query.clone(),
            ttl: 3,
        };
        match P2psMessage::from_xml(&message.to_xml())? {
            P2psMessage::Query { query, .. } => Some(query),
            _ => None,
        }
    }

    fn advert() -> ServiceAdvertisement {
        ServiceAdvertisement::new("EchoService", PeerId(1))
            .with_attribute("domain", "demo")
            .with_attribute("version", "2")
    }

    #[test]
    fn name_matching() {
        assert!(P2psQuery::by_name("Echo%").matches(&advert()));
        assert!(P2psQuery::by_name("echoservice").matches(&advert()));
        assert!(!P2psQuery::by_name("Math%").matches(&advert()));
        assert!(P2psQuery::any().matches(&advert()));
    }

    #[test]
    fn attribute_matching() {
        assert!(P2psQuery::any()
            .with_attribute("domain", "demo")
            .matches(&advert()));
        assert!(!P2psQuery::any()
            .with_attribute("domain", "prod")
            .matches(&advert()));
        assert!(!P2psQuery::any()
            .with_attribute("missing", "x")
            .matches(&advert()));
        assert!(P2psQuery::any()
            .with_attribute("domain", "demo")
            .with_attribute("version", "2")
            .matches(&advert()));
    }

    #[test]
    fn combined_name_and_attributes() {
        let q = P2psQuery::by_name("%Service").with_attribute("version", "2");
        assert!(q.matches(&advert()));
        let q = P2psQuery::by_name("%Service").with_attribute("version", "3");
        assert!(!q.matches(&advert()));
    }

    #[test]
    fn query_round_trip() {
        let q = P2psQuery::by_name("Ech%").with_attribute("domain", "demo");
        assert_eq!(over_the_wire(&q), Some(q));
    }

    #[test]
    fn any_query_round_trip() {
        let q = P2psQuery::any();
        assert_eq!(over_the_wire(&q), Some(q));
    }
}
