//! The deployment under test. `nestd` has no flags for the RAM tier, S3 or
//! IBP, so `nestmark serve` — this same binary, re-exec'd as a child
//! process — hosts `NestServer::start` with the one configuration every
//! workload runs against. No ablation knob is touched: everything not set
//! here keeps the appliance's default.

use crate::json::Json;
use nest_core::config::{BackendKind, ConfigError, NestConfig};
use nest_core::NestServer;
use nest_proto::gsi::{Credential, GridMap, SimCa};
use nest_s3front::S3Front;
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::Arc;

pub const CAPACITY_BYTES: u64 = 8 << 30;
pub const RAM_TIER_BYTES: u64 = 64 << 20;
/// The default lot anonymous fronts (HTTP, FTP, NFS, anonymous Chirp)
/// write into.
pub const ANONYMOUS_LOT_BYTES: u64 = 6 << 30;
/// The default lot of the one grid-mapped user (signed S3, GSI Chirp and
/// GridFTP sessions); the remaining 1 GiB stays free for lot-create ops.
pub const USER_LOT_BYTES: u64 = 1 << 30;
const LOT_SECONDS: u64 = 24 * 3600;

pub const GSI_USER: &str = "bench";
const GSI_SUBJECT: &str = "/O=Grid/OU=nestmark/CN=Benchmark Job";

fn ca() -> SimCa {
    SimCa::new("NestmarkCA", 0x6E65_7374_6D61_726B)
}

/// The credential every authenticated client presents.
pub fn credential() -> Credential {
    ca().issue(GSI_SUBJECT)
}

/// The appliance configuration over storage root `root`.
pub fn config(root: &Path) -> Result<NestConfig, ConfigError> {
    let mut gridmap = GridMap::new();
    gridmap.add(GSI_SUBJECT, GSI_USER);
    NestConfig::builder("nestmark")
        .backend(BackendKind::LocalFs(root.to_path_buf()))
        .capacity(CAPACITY_BYTES)
        .ram_tier_bytes(RAM_TIER_BYTES)
        .ibp(true)
        .front(|d| Arc::new(S3Front::new(Arc::clone(d))))
        .gsi(ca(), gridmap)
        .build()
}

/// Default lots as `(user, bytes, seconds)`.
pub fn default_lots() -> [(&'static str, u64, u64); 2] {
    [
        ("anonymous", ANONYMOUS_LOT_BYTES, LOT_SECONDS),
        (GSI_USER, USER_LOT_BYTES, LOT_SECONDS),
    ]
}

/// Runs the appliance until stdin closes: prints one JSON line with the
/// pid and every front's address, then drains gracefully. Watching stdin
/// means the server also goes away when the load generator dies for any
/// reason, even a SIGKILL.
pub fn serve(root: &Path) -> io::Result<()> {
    let config = config(root).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let server = NestServer::start(config)?;
    for (user, bytes, seconds) in default_lots() {
        server.grant_default_lot(user, bytes, seconds)?;
    }
    let mut fields = vec![("pid".to_owned(), Json::Int(i64::from(std::process::id())))];
    for front in server.fronts() {
        fields.push((front.name.to_owned(), Json::str(front.addr.to_string())));
    }
    if let Some(addr) = server.nfs_addr {
        fields.push(("nfs_udp".to_owned(), Json::str(addr.to_string())));
    }
    let mut out = io::stdout().lock();
    writeln!(out, "{}", Json::Obj(fields))?;
    out.flush()?;
    drop(out);
    io::stdin().lock().read_to_end(&mut Vec::new())?;
    server.shutdown();
    Ok(())
}
