//! HTTP request/response head parsing and rendering.

use crate::request::NestError;
use crate::wire::read_line;
use std::collections::BTreeMap;
use std::io::{self, Read};

/// Supported methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpMethod {
    Get,
    Put,
    Head,
    Delete,
}

impl HttpMethod {
    /// Parses a method token.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "GET" => HttpMethod::Get,
            "PUT" => HttpMethod::Put,
            "HEAD" => HttpMethod::Head,
            "DELETE" => HttpMethod::Delete,
            _ => return None,
        })
    }

    /// The wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            HttpMethod::Get => "GET",
            HttpMethod::Put => "PUT",
            HttpMethod::Head => "HEAD",
            HttpMethod::Delete => "DELETE",
        }
    }
}

/// The interim reply that releases a body held back behind
/// `Expect: 100-continue`.
pub const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequestHead {
    /// The method.
    pub method: HttpMethod,
    /// The request target (path, percent-decoded, query stripped).
    pub path: String,
    /// Parsed query parameters (percent-decoded; a bare `?flag` maps to
    /// an empty value). Empty for plain-path requests.
    pub query: BTreeMap<String, String>,
    /// Lower-cased header map.
    pub headers: BTreeMap<String, String>,
}

impl HttpRequestHead {
    /// A head with no query parameters (the common client-side case).
    pub fn plain(method: HttpMethod, path: &str, headers: BTreeMap<String, String>) -> Self {
        Self {
            method,
            path: path.to_owned(),
            query: BTreeMap::new(),
            headers,
        }
    }

    /// The Content-Length header, if present and numeric.
    pub fn content_length(&self) -> Option<u64> {
        self.headers.get("content-length")?.trim().parse().ok()
    }

    /// Whether the client holds its body back until the server answers
    /// [`CONTINUE`] (`Expect: 100-continue`, RFC 7231 §5.1.1).
    pub fn expects_continue(&self) -> bool {
        self.headers
            .get("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    }

    /// Reads and parses a request head from a stream. `Ok(None)` on clean
    /// EOF (client closed between requests).
    pub fn read(r: &mut impl Read) -> io::Result<Option<Self>> {
        let request_line = match read_line(r)? {
            None => return Ok(None),
            Some(l) if l.is_empty() => return Ok(None),
            Some(l) => l,
        };
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .and_then(HttpMethod::parse)
            .ok_or_else(|| bad(&format!("bad method in {:?}", request_line)))?;
        let target = parts.next().ok_or_else(|| bad("missing request target"))?;
        let version = parts.next().unwrap_or("HTTP/1.0");
        if !version.starts_with("HTTP/1.") {
            return Err(bad(&format!("unsupported version {:?}", version)));
        }
        let mut headers = BTreeMap::new();
        loop {
            match read_line(r)? {
                None => return Err(bad("EOF inside headers")),
                Some(l) if l.is_empty() => break,
                Some(l) => {
                    if let Some((name, value)) = l.split_once(':') {
                        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
                    }
                    // Malformed header lines are skipped, as real servers do.
                }
            }
        }
        let (raw_path, raw_query) = match target.split_once('?') {
            Some((p, q)) => (p, Some(q)),
            None => (target, None),
        };
        let mut query = BTreeMap::new();
        if let Some(q) = raw_query {
            for pair in q.split('&').filter(|p| !p.is_empty()) {
                let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
                query.insert(percent_decode(k), percent_decode(v));
            }
        }
        Ok(Some(HttpRequestHead {
            method,
            path: percent_decode(raw_path),
            query,
            headers,
        }))
    }

    /// Renders the head for sending (client side).
    pub fn render(&self) -> String {
        let mut target = percent_encode(&self.path);
        for (i, (k, v)) in self.query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&percent_encode(k));
            if !v.is_empty() {
                target.push('=');
                target.push_str(&percent_encode(v));
            }
        }
        let mut out = format!("{} {} HTTP/1.1\r\n", self.method.as_str(), target);
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out
    }
}

/// A response head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponseHead {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: String,
    /// Lower-cased headers.
    pub headers: BTreeMap<String, String>,
}

impl HttpResponseHead {
    /// Builds a head with a Content-Length header.
    pub fn with_length(status: u16, reason: &str, length: u64) -> Self {
        let mut headers = BTreeMap::new();
        headers.insert("content-length".into(), length.to_string());
        headers.insert("server".into(), "NeST/0.9".into());
        Self {
            status,
            reason: reason.to_owned(),
            headers,
        }
    }

    /// The Content-Length, if present.
    pub fn content_length(&self) -> Option<u64> {
        self.headers.get("content-length")?.trim().parse().ok()
    }

    /// Reads and parses a response head.
    pub fn read(r: &mut impl Read) -> io::Result<Self> {
        let status_line = read_line(r)?.ok_or_else(|| bad("EOF before response status line"))?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(bad(&format!("bad response version in {:?}", status_line)));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status in {:?}", status_line)))?;
        let reason = parts.next().unwrap_or("").to_owned();
        let mut headers = BTreeMap::new();
        loop {
            match read_line(r)? {
                None => return Err(bad("EOF inside response headers")),
                Some(l) if l.is_empty() => break,
                Some(l) => {
                    if let Some((name, value)) = l.split_once(':') {
                        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_owned());
                    }
                }
            }
        }
        Ok(Self {
            status,
            reason,
            headers,
        })
    }
}

/// Renders a response head to wire form.
pub fn render_response_head(head: &HttpResponseHead) -> String {
    let mut out = format!("HTTP/1.1 {} {}\r\n", head.status, head.reason);
    for (name, value) in &head.headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out
}

/// Maps common errors to HTTP statuses.
pub fn status_for_error(e: NestError) -> (u16, &'static str) {
    match e {
        NestError::Denied => (403, "Forbidden"),
        NestError::NotFound => (404, "Not Found"),
        NestError::Exists => (409, "Conflict"),
        NestError::NoSpace => (507, "Insufficient Storage"),
        NestError::BadRequest => (400, "Bad Request"),
        NestError::Invalid => (409, "Conflict"),
        NestError::Internal => (500, "Internal Server Error"),
    }
}

/// Minimal percent-decoding for path targets.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' && i + 2 < bytes.len() {
            if let Ok(v) = u8::from_str_radix(&s[i + 1..i + 3], 16) {
                out.push(v);
                i += 3;
                continue;
            }
        }
        out.push(bytes[i]);
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Minimal percent-encoding (spaces and percent only; enough for our
/// virtual paths).
pub fn percent_encode(s: &str) -> String {
    s.replace('%', "%25").replace(' ', "%20")
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parse_get_request() {
        let raw = b"GET /data/file.txt HTTP/1.1\r\nHost: x\r\nUser-Agent: t\r\n\r\n".to_vec();
        let head = HttpRequestHead::read(&mut Cursor::new(raw))
            .unwrap()
            .unwrap();
        assert_eq!(head.method, HttpMethod::Get);
        assert_eq!(head.path, "/data/file.txt");
        assert_eq!(head.headers.get("host").map(String::as_str), Some("x"));
    }

    #[test]
    fn parse_put_with_content_length() {
        let raw = b"PUT /f HTTP/1.1\r\nContent-Length: 12\r\n\r\n".to_vec();
        let head = HttpRequestHead::read(&mut Cursor::new(raw))
            .unwrap()
            .unwrap();
        assert_eq!(head.method, HttpMethod::Put);
        assert_eq!(head.content_length(), Some(12));
        assert!(!head.expects_continue());
        let raw = b"PUT /f HTTP/1.1\r\nContent-Length: 12\r\nExpect: 100-Continue\r\n\r\n".to_vec();
        let head = HttpRequestHead::read(&mut Cursor::new(raw))
            .unwrap()
            .unwrap();
        assert!(head.expects_continue());
    }

    #[test]
    fn clean_eof_returns_none() {
        let head = HttpRequestHead::read(&mut Cursor::new(Vec::new())).unwrap();
        assert!(head.is_none());
    }

    #[test]
    fn bad_method_rejected() {
        let raw = b"BREW /pot HTTP/1.1\r\n\r\n".to_vec();
        assert!(HttpRequestHead::read(&mut Cursor::new(raw)).is_err());
    }

    #[test]
    fn request_render_then_parse_roundtrip() {
        let mut headers = BTreeMap::new();
        headers.insert("content-length".into(), "5".into());
        let mut query = BTreeMap::new();
        query.insert("list-type".into(), "2".into());
        query.insert("prefix".into(), "logs/".into());
        let head = HttpRequestHead {
            method: HttpMethod::Put,
            path: "/a file".into(),
            query,
            headers,
        };
        let rendered = head.render();
        let parsed = HttpRequestHead::read(&mut Cursor::new(rendered.into_bytes()))
            .unwrap()
            .unwrap();
        assert_eq!(parsed, head);
    }

    #[test]
    fn response_roundtrip() {
        let head = HttpResponseHead::with_length(200, "OK", 1234);
        let rendered = render_response_head(&head);
        let parsed = HttpResponseHead::read(&mut Cursor::new(rendered.into_bytes())).unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.content_length(), Some(1234));
    }

    #[test]
    fn percent_coding_roundtrips() {
        assert_eq!(percent_decode("/a%20b%25c"), "/a b%c");
        assert_eq!(percent_decode(&percent_encode("/x y%z")), "/x y%z");
        // Malformed escapes pass through.
        assert_eq!(percent_decode("/a%2"), "/a%2");
        assert_eq!(percent_decode("/a%zz"), "/a%zz");
    }

    #[test]
    fn status_mapping_covers_errors() {
        assert_eq!(status_for_error(NestError::NotFound).0, 404);
        assert_eq!(status_for_error(NestError::Denied).0, 403);
        assert_eq!(status_for_error(NestError::NoSpace).0, 507);
    }

    #[test]
    fn query_string_stripped_from_path_and_parsed() {
        let raw = b"GET /f?x=1&flag&p=a%2Fb HTTP/1.1\r\n\r\n".to_vec();
        let head = HttpRequestHead::read(&mut Cursor::new(raw))
            .unwrap()
            .unwrap();
        assert_eq!(head.path, "/f");
        assert_eq!(head.query.get("x").map(String::as_str), Some("1"));
        assert_eq!(head.query.get("flag").map(String::as_str), Some(""));
        assert_eq!(head.query.get("p").map(String::as_str), Some("a/b"));
    }

    #[test]
    fn plain_head_has_no_query() {
        let head = HttpRequestHead::plain(HttpMethod::Get, "/x", BTreeMap::new());
        assert!(head.query.is_empty());
        assert_eq!(head.render(), "GET /x HTTP/1.1\r\n\r\n");
    }
}
