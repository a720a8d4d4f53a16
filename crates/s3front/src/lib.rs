//! # nest-s3front
//!
//! An S3-compatible protocol front for NeST, implemented **entirely
//! outside** `nest-core`'s handler tree: this crate sees only the public
//! [`ProtocolFront`] API, the dispatcher's common request interface, and
//! the wire codec in `nest_proto::s3`. It is the existence proof for the
//! paper's flexibility claim — "new protocols can be easily added into
//! NeST" (§3) — demonstrated with a protocol invented four years *after*
//! the paper.
//!
//! The mapping onto the common interface:
//!
//! | S3 operation                  | Common request                        |
//! |-------------------------------|---------------------------------------|
//! | `PUT /{bucket}`               | `Mkdir`                               |
//! | `DELETE /{bucket}`            | `Rmdir`                               |
//! | `GET /` (ListBuckets)         | `ListDir` at `/` with delimiter `/`   |
//! | `GET /{bucket}?list-type=2`   | `ListDir` with prefix/delimiter       |
//! | `GET /{bucket}/{key}`         | admitted `Get` (transfer manager)     |
//! | `HEAD /{bucket}/{key}`        | `Stat`                                |
//! | `PUT /{bucket}/{key}`         | admitted `Put` (transfer manager)     |
//! | `DELETE /{bucket}/{key}`      | `Delete`                              |
//!
//! A bucket is a top-level directory of the virtual namespace, so bucket
//! writes are charged to the same lots as every other protocol's, and a
//! `DELETE` through S3 releases lot charge visible over Chirp.
//!
//! Authentication is per-request: an `Authorization: NEST4-FNV1A ...`
//! header carrying a simulated-GSI credential maps the subject through
//! the appliance's grid-mapfile; requests without the header run as the
//! anonymous principal, like NeST's HTTP front.

use nest_core::dispatcher::{Dispatcher, LimitedStreamSource};
use nest_core::front::ProtocolFront;
use nest_core::session::{Await, OverloadReply, SessionCtx};
use nest_proto::http::{
    render_response_head, HttpMethod, HttpRequestHead, HttpResponseHead, CONTINUE,
};
use nest_proto::request::{ports, NestError, NestRequest, NestResponse};
use nest_proto::s3::{
    error_for, parse_auth_header, render_error_xml, render_list_all_buckets,
    render_list_bucket_result, S3Listing, S3Object, SLOWDOWN_REPLY,
};
use nest_storage::Principal;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

const PROTOCOL: &str = "s3";

/// The largest CreateBucket body that is read and discarded. A
/// `CreateBucketConfiguration` document is about a hundred bytes; a
/// larger body is refused with 400 and the connection closed.
const MAX_BUCKET_BODY: u64 = 4096;

/// The S3 front: a pure plugin over the dispatcher's public API.
pub struct S3Front {
    dispatcher: Arc<Dispatcher>,
}

impl S3Front {
    /// An S3 front over the appliance's dispatcher.
    pub fn new(dispatcher: Arc<Dispatcher>) -> Self {
        Self { dispatcher }
    }
}

impl ProtocolFront for S3Front {
    fn name(&self) -> &'static str {
        PROTOCOL
    }
    fn default_port(&self) -> Option<u16> {
        Some(ports::S3)
    }
    fn overload_reply(&self) -> OverloadReply {
        // S3's documented throttle: 503 + a SlowDown error document.
        OverloadReply::Raw(SLOWDOWN_REPLY)
    }
    fn serve_conn(&self, stream: TcpStream, ctx: &SessionCtx) -> io::Result<()> {
        handle_conn(&self.dispatcher, stream, ctx)
    }
    fn render_error(&self, e: NestError) -> Vec<u8> {
        let (status, code, message) = error_for(e);
        render_reply(
            status,
            reason_for(status),
            &render_error_xml(code, message, "/"),
        )
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        204 => "No Content",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        409 => "Conflict",
        411 => "Length Required",
        500 => "Internal Server Error",
        _ => "Error",
    }
}

/// Renders a complete response: head with Content-Length plus XML body.
fn render_reply(status: u16, reason: &str, body: &str) -> Vec<u8> {
    let mut head = HttpResponseHead::with_length(status, reason, body.len() as u64);
    head.headers
        .insert("content-type".into(), "application/xml".into());
    let mut out = render_response_head(&head).into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

fn send_error(
    stream: &mut TcpStream,
    e: NestError,
    resource: &str,
    is_bucket_op: bool,
) -> io::Result<()> {
    let (status, code, message) = error_for(e);
    // The object-vs-bucket distinction S3 clients key on.
    let code = if code == "NoSuchKey" && is_bucket_op {
        "NoSuchBucket"
    } else {
        code
    };
    let body = render_error_xml(code, message, resource);
    stream.write_all(&render_reply(status, reason_for(status), &body))
}

/// Splits a request path into (bucket, key). `/b/k/x` → `("b", "k/x")`.
fn split_bucket_key(path: &str) -> (&str, &str) {
    let trimmed = path.trim_start_matches('/');
    match trimmed.split_once('/') {
        Some((b, k)) => (b, k),
        None => (trimmed, ""),
    }
}

fn handle_conn(
    dispatcher: &Arc<Dispatcher>,
    mut stream: TcpStream,
    ctx: &SessionCtx,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    loop {
        match ctx.await_request(&stream)? {
            Await::Ready => {}
            _ => return Ok(()),
        }
        let Some(head) = HttpRequestHead::read(&mut stream)? else {
            return Ok(());
        };
        // Per-request authentication, as S3 does (each request is signed).
        let who = match head.headers.get("authorization") {
            None => Principal::anonymous(),
            Some(value) => match parse_auth_header(value)
                .and_then(|cred| dispatcher.authenticate(&cred).ok())
            {
                Some(p) => p,
                None => {
                    refuse(&mut stream, &head, NestError::Denied, &head.path, false)?;
                    stream.flush()?;
                    continue;
                }
            },
        };
        serve_request(dispatcher, &mut stream, &who, &head)?;
        stream.flush()?;
    }
}

fn serve_request(
    dispatcher: &Arc<Dispatcher>,
    stream: &mut TcpStream,
    who: &Principal,
    head: &HttpRequestHead,
) -> io::Result<()> {
    let (bucket, key) = split_bucket_key(&head.path);
    match (head.method, bucket, key) {
        // -- service level ------------------------------------------------
        (HttpMethod::Get, "", _) => list_buckets(dispatcher, stream, who),
        // -- bucket level -------------------------------------------------
        (HttpMethod::Put, bucket, "") => {
            // The bucket's configuration (region) means nothing here, but
            // its bytes must leave the stream before the next request.
            let length = head.content_length().unwrap_or(0);
            if length > MAX_BUCKET_BODY {
                send_error(stream, NestError::BadRequest, &head.path, true)?;
                return stream.shutdown(Shutdown::Both);
            }
            if length > 0 && head.expects_continue() {
                stream.write_all(CONTINUE)?;
            }
            let drained = io::copy(&mut Read::take(&mut *stream, length), &mut io::sink())?;
            if drained < length {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let resp = dispatcher.execute_sync(
                who,
                PROTOCOL,
                &NestRequest::Mkdir {
                    path: format!("/{bucket}"),
                },
            );
            match resp {
                NestResponse::Ok => stream.write_all(&render_reply(200, "OK", "")),
                NestResponse::Error(e) => send_error(stream, e, &head.path, true),
                _ => send_error(stream, NestError::Internal, &head.path, true),
            }
        }
        (HttpMethod::Delete, bucket, "") => {
            let resp = dispatcher.execute_sync(
                who,
                PROTOCOL,
                &NestRequest::Rmdir {
                    path: format!("/{bucket}"),
                },
            );
            match resp {
                NestResponse::Ok => stream.write_all(&render_reply(204, "No Content", "")),
                NestResponse::Error(e) => send_error(stream, e, &head.path, true),
                _ => send_error(stream, NestError::Internal, &head.path, true),
            }
        }
        (HttpMethod::Get, bucket, "") => list_objects(dispatcher, stream, who, head, bucket),
        // -- object level -------------------------------------------------
        (HttpMethod::Get, _, _) => match dispatcher.admit_get(who, PROTOCOL, &head.path) {
            // A directory is not an object; S3 has no GET-on-prefix.
            Err(NestError::Invalid) => send_error(stream, NestError::NotFound, &head.path, false),
            Err(e) => send_error(stream, e, &head.path, false),
            Ok((vpath, size, cached)) => {
                // Header + first chunk leave in one writev; the rest of
                // the body takes the sendfile fast path when the source
                // can lend a raw file window.
                let resp = HttpResponseHead::with_length(200, "OK", size);
                let head = render_response_head(&resp).into_bytes();
                let sink = dispatcher.socket_sink(stream.try_clone()?, head);
                dispatcher
                    .transfer_get(who, PROTOCOL, &vpath, size, cached, sink)
                    .map(drop)
            }
        },
        (HttpMethod::Head, _, _) => {
            let resp = dispatcher.execute_sync(
                who,
                PROTOCOL,
                &NestRequest::Stat {
                    path: head.path.clone(),
                },
            );
            match resp {
                NestResponse::OkSize(size) => {
                    let resp = HttpResponseHead::with_length(200, "OK", size);
                    stream.write_all(render_response_head(&resp).as_bytes())
                }
                // HEAD carries no body, so error replies are bare heads.
                NestResponse::Error(e) => {
                    let (status, _, _) = error_for(e);
                    let resp = HttpResponseHead::with_length(status, reason_for(status), 0);
                    stream.write_all(render_response_head(&resp).as_bytes())
                }
                _ => {
                    let resp = HttpResponseHead::with_length(500, "Internal Server Error", 0);
                    stream.write_all(render_response_head(&resp).as_bytes())
                }
            }
        }
        (HttpMethod::Put, bucket, key) => put_object(dispatcher, stream, who, head, bucket, key),
        (HttpMethod::Delete, _, _) => {
            let resp = dispatcher.execute_sync(
                who,
                PROTOCOL,
                &NestRequest::Delete {
                    path: head.path.clone(),
                },
            );
            match resp {
                NestResponse::Ok => stream.write_all(&render_reply(204, "No Content", "")),
                NestResponse::Error(e) => send_error(stream, e, &head.path, false),
                _ => send_error(stream, NestError::Internal, &head.path, false),
            }
        }
    }
}

/// `GET /`: every top-level directory is a bucket.
fn list_buckets(
    dispatcher: &Arc<Dispatcher>,
    stream: &mut TcpStream,
    who: &Principal,
) -> io::Result<()> {
    let resp = dispatcher.execute_sync(
        who,
        PROTOCOL,
        &NestRequest::ListDir {
            path: "/".into(),
            prefix: Some(String::new()),
            delimiter: Some("/".into()),
        },
    );
    match resp {
        NestResponse::OkText(lines) => {
            let buckets: Vec<String> = parse_listing_lines(&lines)
                .common_prefixes
                .iter()
                .map(|p| p.trim_end_matches('/').to_owned())
                .collect();
            let body = render_list_all_buckets(&buckets);
            stream.write_all(&render_reply(200, "OK", &body))
        }
        NestResponse::Error(e) => send_error(stream, e, "/", true),
        _ => send_error(stream, NestError::Internal, "/", true),
    }
}

/// One row of a merged listing page: object or rolled-up prefix, ordered
/// by a single lexicographic sort key so pagination cuts one total order
/// (and `max-keys` counts both kinds, per ListObjectsV2).
enum ListRow {
    Obj(S3Object),
    Pre(String),
}

impl ListRow {
    fn sort_key(&self) -> &str {
        match self {
            ListRow::Obj(o) => &o.key,
            ListRow::Pre(p) => p,
        }
    }
}

/// `GET /{bucket}?list-type=2&prefix=&delimiter=&max-keys=` with V2
/// pagination: `continuation-token` (opaque, from a previous truncated
/// page; overrides `start-after`) resumes the walk, and a truncated reply
/// carries `NextContinuationToken`.
fn list_objects(
    dispatcher: &Arc<Dispatcher>,
    stream: &mut TcpStream,
    who: &Principal,
    head: &HttpRequestHead,
    bucket: &str,
) -> io::Result<()> {
    let prefix = head.query.get("prefix").cloned().unwrap_or_default();
    let delimiter = head.query.get("delimiter").cloned();
    // Strict max-keys: anything that is not a non-negative integer is an
    // InvalidArgument, not silently the default page size.
    let max_keys: usize = match head.query.get("max-keys") {
        None => 1000,
        Some(v) => match v.parse::<i64>() {
            Ok(n) if n >= 0 => n as usize,
            _ => {
                let body = render_error_xml(
                    "InvalidArgument",
                    "max-keys must be a non-negative integer.",
                    &head.path,
                );
                return stream.write_all(&render_reply(400, "Bad Request", &body));
            }
        },
    };
    // The resume point: a continuation token is the hex-coded sort key of
    // the previous page's last row; start-after is a client-chosen key.
    // The token wins when both are present, as on real S3.
    let marker: Option<String> = match head.query.get("continuation-token") {
        Some(tok) => match hex_decode(tok) {
            Some(key) => Some(key),
            None => {
                let body = render_error_xml(
                    "InvalidArgument",
                    "The continuation token provided is incorrect.",
                    &head.path,
                );
                return stream.write_all(&render_reply(400, "Bad Request", &body));
            }
        },
        None => head.query.get("start-after").cloned(),
    };
    let resp = dispatcher.execute_sync(
        who,
        PROTOCOL,
        &NestRequest::ListDir {
            path: format!("/{bucket}"),
            prefix: Some(prefix.clone()),
            delimiter: delimiter.clone(),
        },
    );
    match resp {
        NestResponse::OkText(lines) => {
            let listing = parse_listing_lines(&lines);
            let mut rows: Vec<ListRow> = listing
                .objects
                .into_iter()
                .map(ListRow::Obj)
                .chain(listing.common_prefixes.into_iter().map(ListRow::Pre))
                .collect();
            rows.sort_by(|a, b| a.sort_key().cmp(b.sort_key()));
            if let Some(m) = &marker {
                // Strictly after the marker: the marker row itself was
                // already delivered on the previous page.
                rows.retain(|r| r.sort_key() > m.as_str());
            }
            let truncated = rows.len() > max_keys;
            let next_token = if truncated {
                // The cursor is the last row this page emits; an empty
                // page (max-keys=0) re-issues the incoming marker so the
                // client can still make progress once it raises max-keys.
                let last = match max_keys {
                    0 => marker.clone().unwrap_or_default(),
                    n => rows[n - 1].sort_key().to_owned(),
                };
                Some(hex_encode(&last))
            } else {
                None
            };
            rows.truncate(max_keys);
            let mut page = S3Listing::default();
            for row in rows {
                match row {
                    ListRow::Obj(o) => page.objects.push(o),
                    ListRow::Pre(p) => page.common_prefixes.push(p),
                }
            }
            let body = render_list_bucket_result(
                bucket,
                &prefix,
                delimiter.as_deref(),
                &page,
                truncated,
                max_keys,
                next_token.as_deref(),
            );
            stream.write_all(&render_reply(200, "OK", &body))
        }
        NestResponse::Error(e) => send_error(stream, e, &head.path, true),
        _ => send_error(stream, NestError::Internal, &head.path, true),
    }
}

/// Hex-codes a sort key into an opaque continuation token (keys may hold
/// any character; the token must survive a URL query string untouched).
fn hex_encode(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() * 2);
    for b in s.bytes() {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decodes a continuation token back into its sort key; `None` for
/// tokens this server never issued.
fn hex_decode(s: &str) -> Option<String> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for i in (0..s.len()).step_by(2) {
        out.push(u8::from_str_radix(s.get(i..i + 2)?, 16).ok()?);
    }
    String::from_utf8(out).ok()
}

/// Decodes the dispatcher's protocol-independent object-listing lines:
/// `K <size> <key>` per object, `P <prefix>` per common prefix.
fn parse_listing_lines(lines: &[String]) -> S3Listing {
    let mut listing = S3Listing::default();
    for line in lines {
        if let Some(rest) = line.strip_prefix("K ") {
            if let Some((size, key)) = rest.split_once(' ') {
                listing.objects.push(S3Object {
                    key: key.to_owned(),
                    size: size.parse().unwrap_or(0),
                });
            }
        } else if let Some(p) = line.strip_prefix("P ") {
            listing.common_prefixes.push(p.to_owned());
        }
    }
    listing
}

/// `PUT /{bucket}/{key}`: admitted through the storage manager, streamed
/// through the transfer manager, charged to the bucket's lot.
fn put_object(
    dispatcher: &Arc<Dispatcher>,
    stream: &mut TcpStream,
    who: &Principal,
    head: &HttpRequestHead,
    bucket: &str,
    key: &str,
) -> io::Result<()> {
    let Some(length) = head.content_length() else {
        let body = render_error_xml(
            "MissingContentLength",
            "You must provide the Content-Length HTTP header.",
            &head.path,
        );
        return stream.write_all(&render_reply(411, "Length Required", &body));
    };
    // The bucket must already exist (S3 semantics: NoSuchBucket).
    if let NestResponse::Error(e) = dispatcher.execute_sync(
        who,
        PROTOCOL,
        &NestRequest::Stat {
            path: format!("/{bucket}"),
        },
    ) {
        let e = if e == NestError::NotFound || e == NestError::Invalid {
            NestError::NotFound
        } else {
            e
        };
        return refuse(stream, head, e, &format!("/{bucket}"), true);
    }
    // S3 keys may contain '/' with no explicit Mkdir; materialize the
    // intermediate directories, ignoring ones that already exist.
    let mut dir = format!("/{bucket}");
    let mut segments: Vec<&str> = key.split('/').collect();
    segments.pop(); // last segment is the object itself
    for seg in segments {
        dir.push('/');
        dir.push_str(seg);
        match dispatcher.execute_sync(who, PROTOCOL, &NestRequest::Mkdir { path: dir.clone() }) {
            NestResponse::Ok | NestResponse::Error(NestError::Exists) => {}
            NestResponse::Error(e) => return refuse(stream, head, e, &head.path, false),
            _ => return refuse(stream, head, NestError::Internal, &head.path, false),
        }
    }
    match dispatcher.admit_put(who, PROTOCOL, &head.path, Some(length)) {
        Err(e) => refuse(stream, head, e, &head.path, false),
        Ok(vpath) => {
            if head.expects_continue() {
                stream.write_all(CONTINUE)?;
            }
            let source = Box::new(LimitedStreamSource::new(stream.try_clone()?, length));
            match dispatcher.transfer_put(who, PROTOCOL, &vpath, source, Some(length)) {
                Ok(_) => stream.write_all(&render_reply(200, "OK", "")),
                Err(e) if e.kind() == io::ErrorKind::StorageFull => {
                    send_error(stream, NestError::NoSpace, &head.path, false)?;
                    // The body may be half-read; the connection is dead.
                    Err(io::Error::other("put aborted: storage full"))
                }
                Err(e) => Err(e),
            }
        }
    }
}

/// Refuses a request before reading its body. A client that sent
/// `Expect: 100-continue` holds the body back, so the reply goes out and
/// the connection shuts down (the next read sees EOF); any other client's
/// body is drained first to keep the connection in sync.
fn refuse(
    stream: &mut TcpStream,
    head: &HttpRequestHead,
    e: NestError,
    resource: &str,
    is_bucket_op: bool,
) -> io::Result<()> {
    if head.expects_continue() {
        send_error(stream, e, resource, is_bucket_op)?;
        return stream.shutdown(Shutdown::Both);
    }
    if let Some(length) = head.content_length() {
        nest_proto::wire::copy_exact(stream, &mut io::sink(), length, 64 * 1024)?;
    }
    send_error(stream, e, resource, is_bucket_op)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_key_split() {
        assert_eq!(split_bucket_key("/"), ("", ""));
        assert_eq!(split_bucket_key("/b"), ("b", ""));
        assert_eq!(split_bucket_key("/b/k"), ("b", "k"));
        assert_eq!(split_bucket_key("/b/k/x y"), ("b", "k/x y"));
    }

    #[test]
    fn listing_lines_decode() {
        let lines = vec![
            "K 7 logs/app.log".into(),
            "K 3 a key with spaces".into(),
            "P logs/2026/".into(),
        ];
        let l = parse_listing_lines(&lines);
        assert_eq!(l.objects.len(), 2);
        assert_eq!(l.objects[1].key, "a key with spaces");
        assert_eq!(l.objects[1].size, 3);
        assert_eq!(l.common_prefixes, vec!["logs/2026/".to_owned()]);
    }

    #[test]
    fn continuation_tokens_roundtrip_any_key() {
        for key in [
            "plain",
            "a key with spaces",
            "nested/deep/key",
            "",
            "k&<>'\"",
        ] {
            let tok = hex_encode(key);
            assert!(tok.bytes().all(|b| b.is_ascii_hexdigit()));
            assert_eq!(hex_decode(&tok).as_deref(), Some(key));
        }
        // Tokens this server never issued are rejected, not misdecoded.
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("abc"), None);
    }

    #[test]
    fn front_declares_the_s3_dialect() {
        // Construction requires a dispatcher; the dialect constants do not.
        assert_eq!(PROTOCOL, "s3");
        let (status, code, _) = error_for(NestError::NoSpace);
        assert_eq!((status, code), (403, "QuotaExceeded"));
        assert!(SLOWDOWN_REPLY.starts_with(b"HTTP/1.1 503"));
    }
}
