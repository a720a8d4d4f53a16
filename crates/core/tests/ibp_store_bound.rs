//! An IBP `STORE` whose byte count exceeds the allocation is refused
//! before any payload buffer exists: the client gets the error reply, the
//! connection closes, and the appliance keeps answering.
//!
//! Its own test binary: a buffer sized from a terabyte count aborts the
//! process that hosts the server, and with it every test in the binary.

use nest_core::config::NestConfig;
use nest_core::server::NestServer;
use nest_proto::ibp::{IbpClient, Reliability};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Sends one raw `STORE` line (and no payload); returns everything the
/// depot sends back before it closes the connection.
fn store_line_reply(addr: SocketAddr, wcap: &str, nbytes: &str) -> String {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    conn.write_all(format!("STORE {wcap} {nbytes}\r\n").as_bytes())
        .unwrap();
    let mut reply = Vec::new();
    conn.read_to_end(&mut reply)
        .expect("the depot must reply and close, not wait for the payload");
    String::from_utf8(reply).unwrap()
}

#[test]
fn oversized_store_is_refused_and_the_depot_keeps_answering() {
    let config = NestConfig::builder("ibp-store-bound")
        .ibp(true)
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();
    let addr = server.ibp_addr.unwrap();

    let mut client = IbpClient::connect(addr).unwrap();
    let caps = client.allocate(1024, 600, Reliability::Stable).unwrap();
    let wcap = caps.write.to_string();

    for nbytes in ["1099511627776", &u64::MAX.to_string()] {
        let reply = store_line_reply(addr, &wcap, nbytes);
        assert!(
            reply.starts_with("-2 "),
            "STORE of {nbytes} bytes: expected a full-allocation refusal, got {reply:?}"
        );
        // A second connection still gets answers.
        let mut other = IbpClient::connect(addr).unwrap();
        let probe = other.probe(&caps.manage).unwrap();
        assert_eq!(probe.stored, 0, "after STORE of {nbytes}");
        other.quit().unwrap();
    }

    // A STORE that fits still lands, on the first connection too.
    assert_eq!(client.store_bytes(&caps.write, b"depot bytes").unwrap(), 11);
    assert_eq!(client.load(&caps.read, 0, 11).unwrap(), b"depot bytes");
    client.quit().unwrap();
    server.shutdown();
}
