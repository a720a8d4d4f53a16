//! Smoke test for the `nestd` command-line appliance.

use nest_proto::chirp::ChirpClient;
use nest_proto::http::HttpClient;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn nestd_starts_serves_and_dies() {
    let exe = env!("CARGO_BIN_EXE_nestd");
    let mut child = Command::new(exe)
        .args([
            "--name",
            "cli-test",
            "--sched",
            "stride",
            "--tickets",
            "chirp=200,http=100",
            "--model",
            "events",
            "--default-lot",
            "anonymous=4M,120",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("nestd spawns");

    // Parse the listening addresses from stdout.
    let stdout = child.stdout.take().unwrap();
    let mut reader = BufReader::new(stdout);
    let mut chirp_addr = None;
    let mut http_addr = None;
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut line = String::new();
    while Instant::now() < deadline {
        line.clear();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("chirp"), Some(addr)) => chirp_addr = Some(addr.to_owned()),
            (Some("http"), Some(addr)) => http_addr = Some(addr.to_owned()),
            _ => {}
        }
        if line.contains("Ctrl-C") {
            break;
        }
    }
    let chirp_addr = chirp_addr.expect("chirp address printed");
    let http_addr = http_addr.expect("http address printed");

    // Exercise the running appliance.
    let mut http = HttpClient::connect(&*http_addr).unwrap();
    assert_eq!(http.put_bytes("/cli.bin", b"served by nestd").unwrap(), 201);
    let mut chirp = ChirpClient::connect(&*chirp_addr).unwrap();
    assert_eq!(chirp.get_bytes("/cli.bin").unwrap(), b"served by nestd");
    assert!(chirp.version().unwrap().contains("nest"));

    child.kill().expect("nestd killed");
    let _ = child.wait();
}

#[test]
fn nestd_rejects_bad_arguments() {
    let exe = env!("CARGO_BIN_EXE_nestd");
    for bad in [
        vec!["--capacity", "not-a-size"],
        vec!["--sched", "quantum-fair"],
        vec!["--model", "fibers"],
        vec!["--model", "processes"],
        vec!["--no-such-flag"],
    ] {
        let status = Command::new(exe)
            .args(&bad)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .unwrap();
        assert_eq!(status.code(), Some(2), "args {:?} should usage-exit", bad);
    }
}
