//! Namespace URIs and well-known values used across the SOAP layer.

/// SOAP 1.2 envelope namespace.
pub const SOAP_ENV_NS: &str = "http://www.w3.org/2003/05/soap-envelope";

/// WS-Addressing namespace (March 2004 draft, as cited by the paper).
pub const WSA_NS: &str = "http://schemas.xmlsoap.org/ws/2004/03/addressing";

/// The WS-Addressing anonymous address: "reply over the same connection".
/// Used by the HTTP binding; the P2PS binding always supplies an explicit
/// `ReplyTo` pipe instead (the whole point of Figures 5 and 6).
pub const WSA_ANONYMOUS: &str = "http://schemas.xmlsoap.org/ws/2004/03/addressing/role/anonymous";

/// SOAP 1.2 "ultimate receiver" role (the default when no role is given).
pub const ROLE_ULTIMATE_RECEIVER: &str =
    "http://www.w3.org/2003/05/soap-envelope/role/ultimateReceiver";

/// SOAP 1.2 "next" role: every node on the message path.
pub const ROLE_NEXT: &str = "http://www.w3.org/2003/05/soap-envelope/role/next";

/// Namespace of the subcodes this workspace gives its own faults
/// (`NoSuchOperation`, the shape rules of [`crate::typed::Rule`]).
pub const FAULTS_NS: &str = "urn:wspeer:faults";

/// Media type for SOAP 1.2 messages.
pub const CONTENT_TYPE: &str = "application/soap+xml; charset=utf-8";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_are_distinct() {
        assert_ne!(SOAP_ENV_NS, WSA_NS);
        assert!(WSA_ANONYMOUS.starts_with(WSA_NS));
    }
}
