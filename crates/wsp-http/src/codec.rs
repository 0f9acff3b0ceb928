//! HTTP/1.1 wire codec: byte-level encode/parse with `Content-Length`
//! framing (the only framing the WSPeer stack needs).

use crate::message::{Headers, Method, Request, Response};
use std::fmt;
use wsp_xml::scan::Needles;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// More bytes are needed to complete the message.
    Incomplete,
    /// The bytes cannot be an HTTP message.
    Malformed(&'static str),
    /// IO failure in the TCP layer.
    Io(String),
    /// No route to the requested host/port.
    Connect(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Incomplete => write!(f, "incomplete HTTP message"),
            HttpError::Malformed(why) => write!(f, "malformed HTTP message: {why}"),
            HttpError::Io(why) => write!(f, "HTTP IO error: {why}"),
            HttpError::Connect(why) => write!(f, "HTTP connect error: {why}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Serialise a request, setting `Content-Length`, appending to `out`.
/// The transports call this with a [`wsp_xml::BufPool`] buffer so
/// steady-state encoding reuses one allocation.
pub fn encode_request_into(request: &Request, out: &mut Vec<u8>) {
    out.reserve(request.body.len() + 256);
    out.extend_from_slice(request.method.as_str().as_bytes());
    out.push(b' ');
    out.extend_from_slice(request.target.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\n");
    encode_headers(&request.headers, request.body.len(), out);
    out.extend_from_slice(&request.body);
}

/// Serialise a request into a fresh buffer (see [`encode_request_into`]).
pub fn encode_request(request: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(request.body.len() + 256);
    encode_request_into(request, &mut out);
    out
}

/// Serialise a response, setting `Content-Length`, appending to `out`.
pub fn encode_response_into(response: &Response, out: &mut Vec<u8>) {
    out.reserve(response.body.len() + 256);
    out.extend_from_slice(b"HTTP/1.1 ");
    let mut status = [0u8; 5];
    out.extend_from_slice(format_u16(response.status, &mut status));
    out.push(b' ');
    out.extend_from_slice(response.reason.as_bytes());
    out.extend_from_slice(b"\r\n");
    encode_headers(&response.headers, response.body.len(), out);
    out.extend_from_slice(&response.body);
}

/// Serialise a response into a fresh buffer (see [`encode_response_into`]).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(response.body.len() + 256);
    encode_response_into(response, &mut out);
    out
}

fn encode_headers(headers: &Headers, body_len: usize, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20];
    let mut wrote_length = false;
    for (name, value) in headers.iter() {
        if name.eq_ignore_ascii_case("content-length") {
            wrote_length = true;
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(format_usize(body_len, &mut digits));
            out.extend_from_slice(b"\r\n");
            continue;
        }
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !wrote_length {
        out.extend_from_slice(b"Content-Length: ");
        out.extend_from_slice(format_usize(body_len, &mut digits));
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
}

/// Render a `usize` into `buf` without allocating; returns the digits.
fn format_usize(mut value: usize, buf: &mut [u8; 20]) -> &[u8] {
    let mut end = buf.len();
    loop {
        end -= 1;
        buf[end] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    &buf[end..]
}

/// Render a `u16` status code into `buf` without allocating.
fn format_u16(value: u16, buf: &mut [u8; 5]) -> &[u8] {
    let mut end = buf.len();
    let mut value = value as usize;
    loop {
        end -= 1;
        buf[end] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    &buf[end..]
}

/// Parse a complete request from `input`. Returns the request and the
/// number of bytes consumed.
pub fn parse_request(input: &[u8]) -> Result<(Request, usize), HttpError> {
    let (head, body_start) = split_head(input)?;
    let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
    let start = lines.next().ok_or(HttpError::Malformed("empty request"))?;
    let start =
        std::str::from_utf8(start).map_err(|_| HttpError::Malformed("non-UTF8 start line"))?;
    let mut parts = start.split(' ');
    let method = parts
        .next()
        .and_then(Method::parse)
        .ok_or(HttpError::Malformed("unknown method"))?;
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing target"))?
        .to_owned();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let headers = parse_headers(lines)?;
    let length = content_length(&headers)?;
    let total = body_start + length;
    if input.len() < total {
        return Err(HttpError::Incomplete);
    }
    let body = input[body_start..total].to_vec();
    Ok((
        Request {
            method,
            target,
            headers,
            body,
        },
        total,
    ))
}

/// Parse a complete response from `input`. Returns the response and the
/// number of bytes consumed.
pub fn parse_response(input: &[u8]) -> Result<(Response, usize), HttpError> {
    let (head, body_start) = split_head(input)?;
    let mut lines = head.split(|&b| b == b'\n').map(trim_cr);
    let start = lines.next().ok_or(HttpError::Malformed("empty response"))?;
    let start =
        std::str::from_utf8(start).map_err(|_| HttpError::Malformed("non-UTF8 status line"))?;
    let mut parts = start.splitn(3, ' ');
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::Malformed("bad status code"))?;
    let reason = parts.next().unwrap_or("").to_owned();
    let headers = parse_headers(lines)?;
    let length = content_length(&headers)?;
    let total = body_start + length;
    if input.len() < total {
        return Err(HttpError::Incomplete);
    }
    let body = input[body_start..total].to_vec();
    Ok((
        Response {
            status,
            reason,
            headers,
            body,
        },
        total,
    ))
}

const NEWLINE: Needles = Needles::new(b"\n");

/// Incremental search for the end of an HTTP head (`\r\n\r\n`, or
/// `\n\n` for bare-LF peers).
///
/// A connection read loop feeds the same growing buffer after every
/// readiness event; remembering how far it already scanned makes a
/// dripped header cost O(len) in total instead of the O(len²) the old
/// whole-buffer rescan paid. The scanner resumes three bytes before
/// the high-water mark so a terminator straddling two reads is still
/// seen.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeadScan {
    scanned: usize,
}

impl HeadScan {
    pub fn new() -> HeadScan {
        HeadScan::default()
    }

    /// Forget progress (call between requests on a keep-alive
    /// connection, after draining the parsed frame from the buffer).
    pub fn reset(&mut self) {
        self.scanned = 0;
    }

    /// Scan any bytes not yet examined; returns the body offset (just
    /// past the terminator) once the head is complete.
    pub fn find(&mut self, buf: &[u8]) -> Option<usize> {
        let mut from = self.scanned.saturating_sub(3);
        while let Some(i) = NEWLINE.find(buf, from) {
            // Earliest terminator of either flavour wins, so every
            // parser that walks these bytes agrees where the body
            // starts.
            if (i >= 3 && &buf[i - 3..i] == b"\r\n\r") || (i >= 1 && buf[i - 1] == b'\n') {
                return Some(i + 1);
            }
            from = i + 1;
        }
        self.scanned = buf.len();
        None
    }
}

/// Total frame length (head + declared body) of the message whose head
/// ends at `body_start`, applying the same duplicate-`Content-Length`
/// rules as the full parser. Lets a read loop that has just seen the
/// head terminator wait for exactly the right byte count before paying
/// for a full parse.
pub fn frame_len(input: &[u8], body_start: usize) -> Result<usize, HttpError> {
    let head = &input[..body_start.min(input.len())];
    let mut length: Option<usize> = None;
    for line in head.split(|&b| b == b'\n').skip(1).map(trim_cr) {
        let Some(colon) = line.iter().position(|&b| b == b':') else {
            continue;
        };
        if !line[..colon].eq_ignore_ascii_case(b"content-length") {
            continue;
        }
        let value = std::str::from_utf8(&line[colon + 1..])
            .map_err(|_| HttpError::Malformed("bad Content-Length"))?;
        let parsed = body_len(value)?;
        match length {
            None => length = Some(parsed),
            Some(existing) if existing == parsed => {}
            Some(_) => {
                return Err(HttpError::Malformed("conflicting Content-Length headers"));
            }
        }
    }
    (body_start.checked_add(length.unwrap_or(0))).ok_or(HttpError::Malformed("bad Content-Length"))
}

/// The longest body either end of a connection accepts. A peer declares
/// a body's length before sending it, and what it declares is reserved
/// for; above this, the message is refused instead. Far above any body
/// this workspace sends — a 16 KiB echo, a WSDL document, the 1 MiB
/// response of the reactor's backpressure test.
pub const MAX_BODY_LEN: usize = 64 << 20;

/// One `Content-Length` value, within [`MAX_BODY_LEN`].
fn body_len(value: &str) -> Result<usize, HttpError> {
    let length: usize =
        (value.trim().parse()).map_err(|_| HttpError::Malformed("bad Content-Length"))?;
    match length <= MAX_BODY_LEN {
        true => Ok(length),
        false => Err(HttpError::Malformed("Content-Length above MAX_BODY_LEN")),
    }
}

/// Locate the end of the header section. Returns the head slice (without
/// the blank line) and the offset where the body starts.
fn split_head(input: &[u8]) -> Result<(&[u8], usize), HttpError> {
    let body_start = HeadScan::new().find(input).ok_or(HttpError::Incomplete)?;
    let head = &input[..body_start];
    let head = head
        .strip_suffix(b"\r\n\r\n")
        .or_else(|| head.strip_suffix(b"\n\n"))
        .unwrap_or(head);
    Ok((head, body_start))
}

fn parse_headers<'a, I: Iterator<Item = &'a [u8]>>(lines: I) -> Result<Headers, HttpError> {
    let mut headers = Headers::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let line =
            std::str::from_utf8(line).map_err(|_| HttpError::Malformed("non-UTF8 header"))?;
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        headers.append(name.trim(), value.trim());
    }
    Ok(headers)
}

/// Resolve the body length from *every* `Content-Length` header, not
/// just the first: duplicate conflicting values are the classic
/// request-smuggling shape (two parsers disagreeing on where the body
/// ends), so they are rejected outright. Exact duplicates are
/// tolerated, as proxies sometimes repeat the header verbatim.
fn content_length(headers: &Headers) -> Result<usize, HttpError> {
    let mut length: Option<usize> = None;
    for (name, value) in headers.iter() {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let parsed = body_len(value)?;
        match length {
            None => length = Some(parsed),
            Some(existing) if existing == parsed => {}
            Some(_) => {
                return Err(HttpError::Malformed("conflicting Content-Length headers"));
            }
        }
    }
    Ok(length.unwrap_or(0))
}

fn trim_cr(line: &[u8]) -> &[u8] {
    line.strip_suffix(b"\r").unwrap_or(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_formatting_matches_to_string() {
        let mut d = [0u8; 20];
        for v in [0usize, 9, 10, 12345, usize::MAX] {
            assert_eq!(format_usize(v, &mut d), v.to_string().as_bytes());
        }
        let mut s = [0u8; 5];
        for v in [0u16, 200, 404, 65535] {
            assert_eq!(format_u16(v, &mut s), v.to_string().as_bytes());
        }
    }

    #[test]
    fn encode_into_appends_after_existing_bytes() {
        let resp = Response::ok("text/xml", "<ok/>");
        let mut out = b"already-here".to_vec();
        encode_response_into(&resp, &mut out);
        assert!(out.starts_with(b"already-here"));
        let (parsed, _) = parse_response(&out[12..]).unwrap();
        assert_eq!(parsed.body, b"<ok/>");
    }

    #[test]
    fn request_round_trip() {
        let req = Request::post("/Echo", "application/soap+xml; charset=utf-8", "<env/>");
        let bytes = encode_request(&req);
        let (parsed, used) = parse_request(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(parsed.target, "/Echo");
        assert_eq!(parsed.body, b"<env/>");
        assert_eq!(parsed.headers.get("content-length"), Some("6"));
    }

    #[test]
    fn response_round_trip() {
        let resp = Response::ok("text/xml", "<ok/>");
        let bytes = encode_response(&resp);
        let (parsed, used) = parse_response(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.reason, "OK");
        assert_eq!(parsed.body, b"<ok/>");
    }

    #[test]
    fn empty_body_and_no_content_length() {
        let (req, _) = parse_request(b"GET / HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert!(req.body.is_empty());
    }

    #[test]
    fn bare_lf_tolerated() {
        let (req, _) = parse_request(b"GET /x HTTP/1.1\nHost: h\n\n").unwrap();
        assert_eq!(req.target, "/x");
        assert_eq!(req.headers.get("host"), Some("h"));
    }

    #[test]
    fn incomplete_until_full_body() {
        let req = Request::post("/s", "text/plain", "hello world");
        let bytes = encode_request(&req);
        for cut in [10, bytes.len() - 5, bytes.len() - 1] {
            assert_eq!(
                parse_request(&bytes[..cut]).unwrap_err(),
                HttpError::Incomplete,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn trailing_bytes_not_consumed() {
        let mut bytes = encode_request(&Request::get("/a"));
        let len = bytes.len();
        bytes.extend_from_slice(b"GET /b HTTP/1.1\r\n\r\n");
        let (first, used) = parse_request(&bytes).unwrap();
        assert_eq!(first.target, "/a");
        assert_eq!(used, len);
        let (second, _) = parse_request(&bytes[used..]).unwrap();
        assert_eq!(second.target, "/b");
    }

    #[test]
    fn malformed_inputs_rejected() {
        assert!(matches!(
            parse_request(b"BREW / HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_request(b"GET /\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_request(b"GET / SPDY/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nBadHeader\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nContent-Length: soap\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse_response(b"HTTP/1.1 abc OK\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn conflicting_content_lengths_rejected() {
        // The request-smuggling shape: two parsers picking different
        // values would disagree on where the body ends.
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 11\r\n\r\nhello world";
        assert_eq!(
            parse_request(raw).unwrap_err(),
            HttpError::Malformed("conflicting Content-Length headers")
        );
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nokok";
        assert_eq!(
            parse_response(raw).unwrap_err(),
            HttpError::Malformed("conflicting Content-Length headers")
        );
    }

    #[test]
    fn repeated_identical_content_lengths_tolerated() {
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let (parsed, _) = parse_request(raw).unwrap();
        assert_eq!(parsed.body, b"hello");
    }

    #[test]
    fn conflicting_content_length_with_garbage_value_rejected() {
        let raw = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: soap\r\n\r\nhello";
        assert_eq!(
            parse_request(raw).unwrap_err(),
            HttpError::Malformed("bad Content-Length")
        );
    }

    #[test]
    fn content_length_header_rewritten_to_match_body() {
        let mut req = Request::post("/s", "text/plain", "12345");
        req.headers.set("Content-Length", "999"); // stale value
        let bytes = encode_request(&req);
        let (parsed, _) = parse_request(&bytes).unwrap();
        assert_eq!(parsed.headers.get("content-length"), Some("5"));
        assert_eq!(parsed.body, b"12345");
    }

    #[test]
    fn head_scan_resumes_across_dripped_chunks() {
        let wire = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut scan = HeadScan::new();
        let mut buf = Vec::new();
        let mut found = None;
        for &b in wire.iter() {
            buf.push(b);
            if let Some(body) = scan.find(&buf) {
                found = Some((body, buf.len()));
                break;
            }
        }
        let (body_start, seen) = found.expect("terminator found");
        assert_eq!(
            &wire[..body_start],
            b"POST /s HTTP/1.1\r\nContent-Length: 5\r\n\r\n"
        );
        assert_eq!(seen, body_start, "found on exactly the terminator byte");
        assert_eq!(frame_len(wire, body_start).unwrap(), wire.len());
    }

    #[test]
    fn head_scan_handles_bare_lf_and_reset() {
        let mut scan = HeadScan::new();
        let wire = b"GET /x HTTP/1.1\nHost: h\n\nGET";
        let body = scan.find(wire).expect("bare-LF terminator");
        assert_eq!(body, wire.len() - 3);
        scan.reset();
        assert_eq!(scan.find(b"GET / HTTP/1.1\r\nHo"), None);
    }

    #[test]
    fn frame_len_applies_duplicate_content_length_rules() {
        let ok = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        let body = HeadScan::new().find(ok).unwrap();
        assert_eq!(frame_len(ok, body).unwrap(), ok.len());

        let bad = b"POST /s HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 9\r\n\r\nhello";
        let body = HeadScan::new().find(bad).unwrap();
        assert_eq!(
            frame_len(bad, body).unwrap_err(),
            HttpError::Malformed("conflicting Content-Length headers")
        );
    }

    #[test]
    fn scan_and_parser_agree_on_the_frame() {
        let req = Request::post("/Echo", "text/xml", "<env/>");
        let wire = encode_request(&req);
        let body_start = HeadScan::new().find(&wire).unwrap();
        let total = frame_len(&wire, body_start).unwrap();
        let (_, used) = parse_request(&wire).unwrap();
        assert_eq!(total, used);
    }

    #[test]
    fn binary_body_survives() {
        let body: Vec<u8> = (0..=255).collect();
        let mut req = Request::new(Method::Post, "/bin");
        req.body = body.clone();
        let (parsed, _) = parse_request(&encode_request(&req)).unwrap();
        assert_eq!(parsed.body, body);
    }
}
