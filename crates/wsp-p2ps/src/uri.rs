//! The `p2ps://` URI scheme (Section IV.B of the paper).
//!
//! ```text
//! p2ps://{peer-id}/{service-name}#{pipe-name}
//! ```
//!
//! * host component — the peer's logical id;
//! * path component — the service advertisement name (may be absent,
//!   e.g. for a bare return pipe);
//! * fragment component — the pipe name (optional).
//!
//! "Defining a URI scheme allows us to define our logical endpoints in
//! terms of a URI [and to] chain separate elements together into a
//! single parsable unit."

use crate::id::PeerId;
use std::fmt;

/// A parsed `p2ps://` reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct P2psUri {
    pub peer: PeerId,
    /// The service advertisement name; `None` for service-less pipes
    /// (e.g. invocation return channels).
    pub service: Option<String>,
    /// The pipe name fragment.
    pub pipe: Option<String>,
}

impl P2psUri {
    pub fn new(peer: PeerId) -> Self {
        P2psUri {
            peer,
            service: None,
            pipe: None,
        }
    }

    pub fn with_service(mut self, service: impl Into<String>) -> Self {
        self.service = Some(service.into());
        self
    }

    pub fn with_pipe(mut self, pipe: impl Into<String>) -> Self {
        self.pipe = Some(pipe.into());
        self
    }

    /// Parse a `p2ps://` URI.
    pub fn parse(uri: &str) -> Result<P2psUri, P2psUriError> {
        let rest = uri
            .strip_prefix("p2ps://")
            .ok_or_else(|| P2psUriError::new(uri, "missing p2ps:// scheme"))?;
        let (before_fragment, fragment) = match rest.split_once('#') {
            Some((b, f)) => (b, Some(f)),
            None => (rest, None),
        };
        let (host, path) = match before_fragment.split_once('/') {
            Some((h, p)) => (h, Some(p)),
            None => (before_fragment, None),
        };
        let peer = PeerId::from_hex(host)
            .ok_or_else(|| P2psUriError::new(uri, "host component is not a peer id"))?;
        let service = path.filter(|p| !p.is_empty()).map(str::to_owned);
        let pipe = fragment.filter(|f| !f.is_empty()).map(str::to_owned);
        Ok(P2psUri {
            peer,
            service,
            pipe,
        })
    }

    /// The address form without the fragment — what goes in
    /// `wsa:Address`.
    pub fn address(&self) -> String {
        match &self.service {
            Some(s) => format!("p2ps://{}/{}", self.peer, s),
            None => format!("p2ps://{}", self.peer),
        }
    }

    /// The action form: address plus `#pipe` — what goes in
    /// `wsa:Action`.
    pub fn action(&self) -> String {
        match &self.pipe {
            Some(p) => format!("{}#{}", self.address(), p),
            None => self.address(),
        }
    }
}

impl fmt::Display for P2psUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.action())
    }
}

/// A `p2ps://` URI that failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct P2psUriError {
    pub uri: String,
    pub reason: &'static str,
}

impl P2psUriError {
    fn new(uri: &str, reason: &'static str) -> Self {
        P2psUriError {
            uri: uri.to_owned(),
            reason,
        }
    }
}

impl fmt::Display for P2psUriError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid p2ps URI {:?}: {}", self.uri, self.reason)
    }
}

impl std::error::Error for P2psUriError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn peer() -> PeerId {
        PeerId(0x0123_4567_89ab_cdef)
    }

    #[test]
    fn full_uri_round_trip() {
        let uri = P2psUri::new(peer())
            .with_service("Echo")
            .with_pipe("echoString");
        let text = uri.to_string();
        assert_eq!(text, "p2ps://0123456789abcdef/Echo#echoString");
        assert_eq!(P2psUri::parse(&text).unwrap(), uri);
    }

    #[test]
    fn paper_example_shape() {
        // The paper's example: p2ps://<id>/echo#echostring
        let parsed = P2psUri::parse("p2ps://0000000000001234/echo#echostring").unwrap();
        assert_eq!(parsed.peer, PeerId(0x1234));
        assert_eq!(parsed.service.as_deref(), Some("echo"));
        assert_eq!(parsed.pipe.as_deref(), Some("echostring"));
    }

    #[test]
    fn service_less_return_pipe() {
        // "If there is no service associated with the pipe … the Address
        // field is just the scheme and the host component."
        let uri = P2psUri::new(peer()).with_pipe("return-1");
        assert_eq!(uri.address(), "p2ps://0123456789abcdef");
        assert_eq!(uri.action(), "p2ps://0123456789abcdef#return-1");
        let parsed = P2psUri::parse(&uri.action()).unwrap();
        assert_eq!(parsed, uri);
    }

    #[test]
    fn bare_peer_uri() {
        let parsed = P2psUri::parse("p2ps://0123456789abcdef").unwrap();
        assert_eq!(parsed, P2psUri::new(peer()));
        // Empty path/fragment components are treated as absent.
        let parsed = P2psUri::parse("p2ps://0123456789abcdef/#").unwrap();
        assert_eq!(parsed, P2psUri::new(peer()));
    }

    #[test]
    fn rejects_malformed() {
        assert!(P2psUri::parse("http://h/x").is_err());
        assert!(P2psUri::parse("p2ps://nothex/Echo").is_err());
        assert!(P2psUri::parse("p2ps://").is_err());
    }

    #[test]
    fn address_omits_fragment() {
        let uri = P2psUri::new(peer()).with_service("Echo").with_pipe("p");
        assert_eq!(uri.address(), "p2ps://0123456789abcdef/Echo");
    }
}
