//! HTTPG — the authenticated transport used by Globus, simulated.
//!
//! The paper's standard implementation supports "HTTPG (the transport
//! used by Globus for authenticated communication)". Real HTTPG wraps
//! HTTP in GSI/TLS; per `DESIGN.md` we model what matters to WSPeer —
//! that an alternative, credential-checking transport plugs in under the
//! same invocation path — with a keyed request token rather than a
//! cryptographic suite. **This is a simulation artefact, not security.**

use crate::message::{Request, Response};
use crate::router::{HttpHandler, Router};
use std::sync::Arc;
use wsp_simnet::{fnv1a, fnv1a_fold};

/// Header carrying the HTTPG token.
pub const AUTH_HEADER: &str = "Authorization";

/// Shared-credential configuration for one security domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpgCredential {
    /// The shared secret both sides were provisioned with.
    pub secret: String,
    /// The identity asserted by the client.
    pub subject: String,
}

impl HttpgCredential {
    pub fn new(secret: impl Into<String>, subject: impl Into<String>) -> Self {
        HttpgCredential {
            secret: secret.into(),
            subject: subject.into(),
        }
    }

    /// Compute the request token for a target path.
    pub fn token_for(&self, target: &str) -> String {
        format!(
            "HTTPG subject={} mac={:016x}",
            self.subject,
            keyed_hash(&self.secret, &self.subject, target)
        )
    }

    /// Stamp a request with this credential.
    pub fn apply(&self, request: &mut Request) {
        let token = self.token_for(request.path());
        request.headers.set(AUTH_HEADER, token);
    }

    /// Verify a request against this domain's secret. Returns the
    /// asserted subject on success.
    pub fn verify(&self, request: &Request) -> Result<String, HttpgError> {
        let header = request
            .headers
            .get(AUTH_HEADER)
            .ok_or(HttpgError::MissingToken)?;
        let rest = header.strip_prefix("HTTPG ").ok_or(HttpgError::NotHttpg)?;
        let mut subject = None;
        let mut mac = None;
        for part in rest.split_whitespace() {
            if let Some(s) = part.strip_prefix("subject=") {
                subject = Some(s.to_owned());
            } else if let Some(m) = part.strip_prefix("mac=") {
                mac = u64::from_str_radix(m, 16).ok();
            }
        }
        let subject = subject.ok_or(HttpgError::NotHttpg)?;
        let mac = mac.ok_or(HttpgError::NotHttpg)?;
        let expected = keyed_hash(&self.secret, &subject, request.path());
        if mac == expected {
            Ok(subject)
        } else {
            Err(HttpgError::BadToken)
        }
    }
}

/// HTTPG verification failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpgError {
    MissingToken,
    NotHttpg,
    BadToken,
}

impl std::fmt::Display for HttpgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpgError::MissingToken => write!(f, "no Authorization header"),
            HttpgError::NotHttpg => write!(f, "Authorization header is not an HTTPG token"),
            HttpgError::BadToken => write!(f, "HTTPG token verification failed"),
        }
    }
}

impl std::error::Error for HttpgError {}

/// Wrap a handler so it requires a valid HTTPG token.
pub fn guarded(credential: HttpgCredential, inner: HttpHandler) -> HttpHandler {
    Arc::new(move |request: &Request| match credential.verify(request) {
        Ok(_subject) => inner(request),
        Err(e) => Response::unauthorized(&e.to_string()),
    })
}

/// Install an HTTPG guard in front of every service on a router by
/// using the router's interceptor hook.
pub fn guard_router(router: &Router, credential: HttpgCredential) {
    router.set_interceptor(Some(Arc::new(move |request: &Request| {
        match credential.verify(request) {
            Ok(_) => None, // fall through to the service handler
            Err(e) => Some(Response::unauthorized(&e.to_string())),
        }
    })));
}

/// FNV-1a over (secret, subject, target). Adequate for simulation; see
/// module docs.
fn keyed_hash(secret: &str, subject: &str, target: &str) -> u64 {
    [
        b"\0".as_slice(),
        subject.as_bytes(),
        b"\0",
        target.as_bytes(),
    ]
    .into_iter()
    .fold(fnv1a(secret.as_bytes()), fnv1a_fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cred() -> HttpgCredential {
        HttpgCredential::new("grid-secret", "/O=Grid/CN=triana")
    }

    #[test]
    fn stamped_request_verifies() {
        let mut request = Request::get("/Cactus");
        cred().apply(&mut request);
        assert_eq!(cred().verify(&request).unwrap(), "/O=Grid/CN=triana");
    }

    #[test]
    fn missing_token_rejected() {
        assert_eq!(
            cred().verify(&Request::get("/x")),
            Err(HttpgError::MissingToken)
        );
    }

    #[test]
    fn wrong_secret_rejected() {
        let mut request = Request::get("/Cactus");
        HttpgCredential::new("other-secret", "/O=Grid/CN=triana").apply(&mut request);
        assert_eq!(cred().verify(&request), Err(HttpgError::BadToken));
    }

    #[test]
    fn token_bound_to_target() {
        let mut request = Request::get("/Cactus");
        cred().apply(&mut request);
        request.target = "/Other".into(); // replayed against another path
        assert_eq!(cred().verify(&request), Err(HttpgError::BadToken));
    }

    #[test]
    fn tampered_subject_rejected() {
        let mut request = Request::get("/Cactus");
        cred().apply(&mut request);
        let token = request
            .headers
            .get(AUTH_HEADER)
            .unwrap()
            .replace("triana", "mallory");
        request.headers.set(AUTH_HEADER, token);
        assert_eq!(cred().verify(&request), Err(HttpgError::BadToken));
    }

    #[test]
    fn non_httpg_scheme_rejected() {
        let mut request = Request::get("/x");
        request.headers.set(AUTH_HEADER, "Bearer abc");
        assert_eq!(cred().verify(&request), Err(HttpgError::NotHttpg));
    }

    #[test]
    fn guarded_handler_flow() {
        let handler = guarded(
            cred(),
            Arc::new(|_req: &Request| Response::ok("text/plain", "secret data")),
        );
        let mut authed = Request::get("/svc");
        cred().apply(&mut authed);
        assert_eq!(handler(&authed).status, 200);
        assert_eq!(handler(&Request::get("/svc")).status, 401);
    }

    #[test]
    fn guard_router_protects_everything_but_still_routes() {
        let router = Router::new();
        router.deploy(
            "S",
            Arc::new(|_r: &Request| Response::ok("text/plain", "ok")),
        );
        guard_router(&router, cred());
        assert_eq!(router.handle(&Request::get("/S")).status, 401);
        let mut authed = Request::get("/S");
        cred().apply(&mut authed);
        assert_eq!(router.handle(&authed).body_str(), "ok");
    }
}
