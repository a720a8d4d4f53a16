//! End-to-end exercise of the S3 plugin front: a protocol the paper's
//! authors never saw, served through the same dispatcher, lots, and
//! session layer as the six 2002 fronts. Signed PUTs land in the mapped
//! user's lot, ListObjectsV2 rolls up common prefixes, GETs round-trip
//! bytes, and DELETE releases the lot charge — visible through the same
//! storage-manager inspection a Chirp client would use.

use nest::core::config::NestConfig;
use nest::core::server::NestServer;
use nest::obs::Obs;
use nest::proto::gsi::{GridMap, SimCa};
use nest::proto::http::{HttpMethod, HttpResponseHead};
use nest::proto::s3::{format_auth_header, S3Client};
use nest::s3front::S3Front;
use nest::storage::lot::LotId;
use nest::storage::Principal;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const SUBJECT: &str = "/O=Grid/OU=wisc.edu/CN=Alice Researcher";

fn start_server() -> (NestServer, SimCa, u64) {
    let obs = Obs::new();
    let ca = SimCa::new("TestCA", 0x5EED_CAFE);
    let mut gridmap = GridMap::new();
    gridmap.add(SUBJECT, "alice");
    let config = NestConfig::builder("s3-e2e")
        .obs(Arc::clone(&obs))
        .gsi(ca.clone(), gridmap)
        .front(|d| Arc::new(S3Front::new(Arc::clone(d))))
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();
    let lot = server.grant_default_lot("alice", 1 << 20, 3600).unwrap();
    (server, ca, lot)
}

#[test]
fn signed_put_list_get_delete_through_the_lot() {
    let (server, ca, lot) = start_server();
    let addr = server.front_addr("s3").expect("s3 front must be bound");
    let alice = Principal::user("alice");

    let mut client = S3Client::connect(addr)
        .unwrap()
        .with_credential(ca.issue(SUBJECT));

    // Bucket = top-level directory.
    client.create_bucket("data").unwrap();
    assert!(client.list_buckets().unwrap().contains(&"data".to_owned()));

    // Signed PUTs; nested keys materialize their directories.
    client
        .put_object("data", "logs/app.log", b"hello s3")
        .unwrap();
    client
        .put_object("data", "logs/2026/deep.log", b"deep")
        .unwrap();
    client.put_object("data", "readme.txt", b"top").unwrap();

    // The writes are charged to alice's lot — the same accounting every
    // other protocol's writes flow through.
    let storage = server.dispatcher().storage();
    let used_after_put = storage.lot_stat(&alice, LotId(lot)).unwrap().used;
    assert_eq!(used_after_put, (8 + 4 + 3) as u64);

    // ListObjectsV2: prefix narrows, delimiter rolls up.
    let by_prefix = client.list("data", "logs/", Some("/")).unwrap();
    assert_eq!(
        by_prefix
            .objects
            .iter()
            .map(|o| o.key.as_str())
            .collect::<Vec<_>>(),
        vec!["logs/app.log"]
    );
    assert_eq!(by_prefix.common_prefixes, vec!["logs/2026/".to_owned()]);

    let flat = client.list("data", "", None).unwrap();
    assert_eq!(
        flat.objects
            .iter()
            .map(|o| o.key.as_str())
            .collect::<Vec<_>>(),
        vec!["logs/2026/deep.log", "logs/app.log", "readme.txt"]
    );
    assert!(flat.common_prefixes.is_empty());

    // GET/HEAD round-trips.
    assert_eq!(
        client.get_object("data", "logs/app.log").unwrap(),
        b"hello s3"
    );
    assert_eq!(client.head_object("data", "readme.txt").unwrap(), 3);

    // DELETE releases the lot charge.
    client.delete_object("data", "logs/app.log").unwrap();
    let used_after_delete = storage.lot_stat(&alice, LotId(lot)).unwrap().used;
    assert_eq!(used_after_delete, used_after_put - 8);

    server.shutdown();
}

#[test]
fn paginated_list_walks_every_key_exactly_once() {
    let (server, ca, _lot) = start_server();
    let addr = server.front_addr("s3").unwrap();
    let mut client = S3Client::connect(addr)
        .unwrap()
        .with_credential(ca.issue(SUBJECT));
    client.create_bucket("pag").unwrap();

    // 2.5× the page size, written in reverse so pagination order is the
    // listing's lexicographic sort, not insertion order.
    const PAGE: usize = 10;
    let total = PAGE * 5 / 2;
    let mut expect: Vec<String> = (0..total).map(|i| format!("key-{i:03}")).collect();
    for key in expect.iter().rev() {
        client.put_object("pag", key, b"x").unwrap();
    }
    expect.sort();

    let mut seen = Vec::new();
    let mut token: Option<String> = None;
    let mut pages = 0;
    loop {
        let page = client
            .list_page("pag", "", None, Some(PAGE), token.as_deref(), None)
            .unwrap();
        assert!(page.listing.objects.len() <= PAGE);
        seen.extend(page.listing.objects.iter().map(|o| o.key.clone()));
        pages += 1;
        if page.is_truncated {
            token = Some(page.next_token.expect("truncated page must carry a token"));
        } else {
            assert!(page.next_token.is_none());
            break;
        }
    }
    assert_eq!(pages, 3, "25 keys at 10/page is three pages");
    // Every key exactly once, in order: no duplicates, none skipped.
    assert_eq!(seen, expect);
    server.shutdown();
}

#[test]
fn common_prefixes_count_against_max_keys() {
    let (server, ca, _lot) = start_server();
    let addr = server.front_addr("s3").unwrap();
    let mut client = S3Client::connect(addr)
        .unwrap()
        .with_credential(ca.issue(SUBJECT));
    client.create_bucket("mix").unwrap();
    client.put_object("mix", "a/1", b"x").unwrap();
    client.put_object("mix", "b/1", b"x").unwrap();
    client.put_object("mix", "c.txt", b"x").unwrap();
    client.put_object("mix", "d.txt", b"x").unwrap();

    // Page of 3 under a delimiter: two rolled-up prefixes plus one key
    // fill the page (prefixes count against max-keys, as in real S3).
    let p1 = client
        .list_page("mix", "", Some("/"), Some(3), None, None)
        .unwrap();
    assert_eq!(p1.listing.common_prefixes, vec!["a/", "b/"]);
    assert_eq!(
        p1.listing
            .objects
            .iter()
            .map(|o| o.key.as_str())
            .collect::<Vec<_>>(),
        vec!["c.txt"]
    );
    assert!(p1.is_truncated);

    let p2 = client
        .list_page(
            "mix",
            "",
            Some("/"),
            Some(3),
            p1.next_token.as_deref(),
            None,
        )
        .unwrap();
    assert_eq!(
        p2.listing
            .objects
            .iter()
            .map(|o| o.key.as_str())
            .collect::<Vec<_>>(),
        vec!["d.txt"]
    );
    assert!(p2.listing.common_prefixes.is_empty());
    assert!(!p2.is_truncated);
    server.shutdown();
}

#[test]
fn max_keys_validation_and_zero_page() {
    let (server, ca, _lot) = start_server();
    let addr = server.front_addr("s3").unwrap();
    let mut client = S3Client::connect(addr)
        .unwrap()
        .with_credential(ca.issue(SUBJECT));
    client.create_bucket("v").unwrap();
    client.put_object("v", "a", b"x").unwrap();
    client.put_object("v", "b", b"x").unwrap();

    // Non-numeric and negative max-keys are refused, not silently coerced.
    for bad in ["abc", "-1"] {
        let mut q = BTreeMap::new();
        q.insert("list-type".into(), "2".into());
        q.insert("max-keys".into(), bad.into());
        let resp = client.raw(HttpMethod::Get, "/v", q, b"").unwrap();
        assert_eq!(resp.status, 400, "max-keys={bad}");
        assert_eq!(resp.error_code().as_deref(), Some("InvalidArgument"));
    }

    // A garbage continuation token is likewise InvalidArgument.
    let mut q = BTreeMap::new();
    q.insert("list-type".into(), "2".into());
    q.insert("continuation-token".into(), "not-hex!".into());
    let resp = client.raw(HttpMethod::Get, "/v", q, b"").unwrap();
    assert_eq!(resp.status, 400);
    assert_eq!(resp.error_code().as_deref(), Some("InvalidArgument"));

    // max-keys=0 is a legal empty page that still reports remaining keys.
    let p = client
        .list_page("v", "", None, Some(0), None, None)
        .unwrap();
    assert!(p.listing.objects.is_empty());
    assert!(p.listing.common_prefixes.is_empty());
    assert!(p.is_truncated, "keys remain beyond the empty page");

    // start-after positions the listing without a continuation token.
    let p = client
        .list_page("v", "", None, None, None, Some("a"))
        .unwrap();
    assert_eq!(
        p.listing
            .objects
            .iter()
            .map(|o| o.key.as_str())
            .collect::<Vec<_>>(),
        vec!["b"]
    );
    assert!(!p.is_truncated);
    server.shutdown();
}

#[test]
fn error_dialect_and_auth_rejection() {
    let (server, ca, _lot) = start_server();
    let addr = server.front_addr("s3").unwrap();

    // A forged signature is refused with S3's AccessDenied document.
    let mut forged_cred = ca.issue(SUBJECT);
    forged_cred.tag ^= 1;
    let mut forged = S3Client::connect(addr)
        .unwrap()
        .with_credential(forged_cred);
    let resp = forged
        .raw(HttpMethod::Get, "/", BTreeMap::new(), b"")
        .unwrap();
    assert_eq!(resp.status, 403);
    assert_eq!(resp.error_code().as_deref(), Some("AccessDenied"));

    // A missing object is NoSuchKey; a missing bucket is NoSuchBucket.
    let mut client = S3Client::connect(addr)
        .unwrap()
        .with_credential(ca.issue(SUBJECT));
    client.create_bucket("b").unwrap();
    let resp = client
        .raw(HttpMethod::Get, "/b/nope", BTreeMap::new(), b"")
        .unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(resp.error_code().as_deref(), Some("NoSuchKey"));

    let mut query = BTreeMap::new();
    query.insert("list-type".into(), "2".into());
    let resp = client
        .raw(HttpMethod::Get, "/missing-bucket", query, b"")
        .unwrap();
    assert_eq!(resp.status, 404);
    assert_eq!(resp.error_code().as_deref(), Some("NoSuchBucket"));

    // PUT into a missing bucket is refused up front.
    let err = client.put_object("missing-bucket", "k", b"x").unwrap_err();
    assert!(err.to_string().contains("404"), "got {err}");

    server.shutdown();
}

/// Sends a signed PUT head with `Expect: 100-continue` and no body byte;
/// the front has one second to answer.
fn put_expecting_continue(server: &NestServer, ca: &SimCa, path: &str, len: u64) -> TcpStream {
    let mut conn = TcpStream::connect(server.front_addr("s3").unwrap()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
    let head = format!(
        "PUT {path} HTTP/1.1\r\nHost: nest\r\nAuthorization: {}\r\nContent-Length: {len}\r\nExpect: 100-continue\r\n\r\n",
        format_auth_header(&ca.issue(SUBJECT))
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn
}

#[test]
fn put_answers_expect_continue() {
    let (server, ca, _lot) = start_server();
    let mut client = S3Client::connect(server.front_addr("s3").unwrap())
        .unwrap()
        .with_credential(ca.issue(SUBJECT));
    client.create_bucket("b").unwrap();

    let body: Vec<u8> = (0..300_000u32).map(|i| (i % 239) as u8).collect();
    let mut conn = put_expecting_continue(&server, &ca, "/b/k", body.len() as u64);
    // The interim reply comes before any body byte is sent.
    assert_eq!(HttpResponseHead::read(&mut conn).unwrap().status, 100);
    conn.write_all(&body).unwrap();
    assert_eq!(HttpResponseHead::read(&mut conn).unwrap().status, 200);
    assert_eq!(client.get_object("b", "k").unwrap(), body);

    // Refusals, before and at admission (a missing bucket, a body over
    // the 1 MiB lot), answer without the body and then close.
    for (path, len, status) in [("/nope/k", 10, 404), ("/b/huge", 2 << 20, 403)] {
        let mut conn = put_expecting_continue(&server, &ca, path, len);
        let head = HttpResponseHead::read(&mut conn).unwrap();
        assert_eq!(head.status, status, "{path}");
        let mut rest = vec![0u8; head.content_length().unwrap() as usize];
        conn.read_exact(&mut rest).unwrap();
        assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0, "{path}: not closed");
    }
    server.shutdown();
}

/// Sends one signed request head on `conn`, then `body`; returns the
/// reply's status and body.
fn signed_exchange(
    conn: &mut TcpStream,
    ca: &SimCa,
    method: &str,
    path: &str,
    body: &[u8],
) -> (u16, String) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: nest\r\nAuthorization: {}\r\nContent-Length: {}\r\n\r\n",
        format_auth_header(&ca.issue(SUBJECT)),
        body.len()
    );
    conn.write_all(head.as_bytes()).unwrap();
    conn.write_all(body).unwrap();
    let reply = HttpResponseHead::read(conn).unwrap();
    let mut text = vec![0u8; reply.content_length().unwrap() as usize];
    conn.read_exact(&mut text).unwrap();
    (reply.status, String::from_utf8(text).unwrap())
}

#[test]
fn create_bucket_body_is_discarded_and_the_connection_stays_in_sync() {
    let (server, ca, _lot) = start_server();
    let mut conn = TcpStream::connect(server.front_addr("s3").unwrap()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();

    // What SDKs send outside us-east-1: a 96-byte configuration document.
    let config = b"<CreateBucketConfiguration><LocationConstraint></LocationConstraint></CreateBucketConfiguration>";
    assert_eq!(config.len(), 96);
    assert_eq!(
        signed_exchange(&mut conn, &ca, "PUT", "/cfg", config).0,
        200
    );
    // The next request on the same connection gets its own answer.
    let (status, listing) = signed_exchange(&mut conn, &ca, "GET", "/cfg?list-type=2", b"");
    assert_eq!(status, 200, "{listing}");
    assert!(listing.contains("<Name>cfg</Name>"), "{listing}");

    // A body over the bound is refused unread, and the connection closes.
    let mut conn = TcpStream::connect(server.front_addr("s3").unwrap()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let head = format!(
        "PUT /big HTTP/1.1\r\nHost: nest\r\nAuthorization: {}\r\nContent-Length: {}\r\n\r\n",
        format_auth_header(&ca.issue(SUBJECT)),
        1 << 20
    );
    conn.write_all(head.as_bytes()).unwrap();
    let reply = HttpResponseHead::read(&mut conn).unwrap();
    assert_eq!(reply.status, 400);
    let mut rest = vec![0u8; reply.content_length().unwrap() as usize];
    conn.read_exact(&mut rest).unwrap();
    assert_eq!(conn.read(&mut [0u8; 1]).unwrap(), 0, "not closed");
    let mut client = S3Client::connect(server.front_addr("s3").unwrap())
        .unwrap()
        .with_credential(ca.issue(SUBJECT));
    assert!(!client.list_buckets().unwrap().contains(&"big".to_owned()));
    server.shutdown();
}
