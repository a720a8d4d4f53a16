//! End-to-end tests: a real NeST server on localhost, exercised through
//! every protocol's client library.

use nest_core::config::NestConfig;
use nest_core::server::NestServer;
use nest_obs::MetricsSnapshot;
use nest_proto::chirp::ChirpClient;
use nest_proto::ftp::FtpClient;
use nest_proto::gridftp::GridFtpClient;
use nest_proto::gsi::{GridMap, SimCa};
use nest_proto::http::HttpClient;
use nest_proto::nfs::{MountClient, NfsClient};
use nest_transfer::manager::ModelSelection;
use nest_transfer::ModelKind;

fn test_ca() -> SimCa {
    SimCa::new("NeST-Test-CA", 0x5EED)
}

fn gridmap() -> GridMap {
    let mut gm = GridMap::new();
    gm.add("/O=Grid/CN=Alice", "alice");
    gm
}

fn start_server(name: &str) -> NestServer {
    let config = NestConfig::builder(name)
        .gsi(test_ca(), gridmap())
        .build()
        .unwrap();
    NestServer::start(config).expect("server starts")
}

#[test]
fn chirp_full_session() {
    let server = start_server("chirp-e2e");
    let mut client = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();

    assert!(client.version().unwrap().contains("nest-chirp"));

    // Authenticate as alice via simulated GSI.
    let cred = test_ca().issue("/O=Grid/CN=Alice");
    assert_eq!(client.authenticate(&cred).unwrap(), "alice");

    // Lots: create, write into it, stat, renew, list.
    let lot = client.lot_create(1 << 20, 3600).unwrap();
    client.mkdir("/data").unwrap();
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    client.put_bytes("/data/input.dat", &payload).unwrap();
    assert_eq!(
        client.stat("/data/input.dat").unwrap(),
        payload.len() as u64
    );
    assert_eq!(client.get_bytes("/data/input.dat").unwrap(), payload);
    assert_eq!(client.ls("/data").unwrap(), vec!["input.dat"]);

    let info = client.lot_stat(lot).unwrap();
    assert_eq!(info.capacity, 1 << 20);
    assert_eq!(info.used, payload.len() as u64);
    client.lot_renew(lot, 100).unwrap();
    assert_eq!(client.lot_list().unwrap().len(), 1);

    // Rename and delete.
    client
        .rename("/data/input.dat", "/data/renamed.dat")
        .unwrap();
    client.unlink("/data/renamed.dat").unwrap();
    assert_eq!(client.lot_stat(lot).unwrap().used, 0);
    client.rmdir("/data").unwrap();

    client.lot_terminate(lot).unwrap();
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn chirp_unauthenticated_cannot_create_lot() {
    let server = start_server("chirp-anon");
    let mut client = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    assert!(client.lot_create(1000, 60).is_err());
    server.shutdown();
}

#[test]
fn chirp_bad_credential_rejected() {
    let server = start_server("chirp-badcred");
    let mut client = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    let other_ca = SimCa::new("Evil-CA", 0xBAD);
    let cred = other_ca.issue("/O=Grid/CN=Alice");
    assert!(client.authenticate(&cred).is_err());
    server.shutdown();
}

#[test]
fn http_get_put_head_delete() {
    let server = start_server("http-e2e");
    // HTTP is anonymous: back it with a default lot.
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();

    let mut client = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    let body = vec![7u8; 50_000];
    assert_eq!(client.put_bytes("/file.bin", &body).unwrap(), 201);
    assert_eq!(client.get_bytes("/file.bin").unwrap(), body);
    let (status, len) = client.head_request("/file.bin").unwrap();
    assert_eq!((status, len), (200, Some(50_000)));
    assert_eq!(client.delete("/file.bin").unwrap(), 204);
    let (status, _) = client.head_request("/file.bin").unwrap();
    assert_eq!(status, 404);
    server.shutdown();
}

#[test]
fn http_put_without_lot_is_507() {
    let server = start_server("http-nolot");
    let mut client = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    let status = client.put_bytes("/f", b"xxxx").unwrap();
    assert_eq!(status, 507);
    server.shutdown();
}

#[test]
fn ftp_full_session() {
    let server = start_server("ftp-e2e");
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();

    let mut client = FtpClient::connect(server.ftp_addr.unwrap()).unwrap();
    client.login("anonymous", "test@").unwrap();
    client.type_binary().unwrap();

    client.mkd("/updir").unwrap();
    let body: Vec<u8> = (0..60_000u32).map(|i| (i % 256) as u8).collect();
    assert_eq!(
        client.stor_bytes("/updir/f.bin", &body).unwrap(),
        body.len() as u64
    );
    assert_eq!(client.size("/updir/f.bin").unwrap(), body.len() as u64);
    assert_eq!(client.retr_bytes("/updir/f.bin").unwrap(), body);
    assert_eq!(client.nlst(Some("/updir")).unwrap(), vec!["f.bin"]);
    client.rename("/updir/f.bin", "/updir/g.bin").unwrap();
    client.dele("/updir/g.bin").unwrap();
    client.rmd("/updir").unwrap();
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn gridftp_parallel_streams_roundtrip() {
    let server = start_server("gftp-e2e");
    let mut client = GridFtpClient::connect(server.gridftp_addr.unwrap()).unwrap();
    let cred = test_ca().issue("/O=Grid/CN=Alice");
    assert_eq!(client.authenticate(&cred).unwrap(), "alice");
    client.set_parallelism(4).unwrap();

    // alice needs a lot; grant administratively.
    server.grant_default_lot("alice", 4 << 20, 3600).unwrap();

    let body: Vec<u8> = (0..1_000_000u32).map(|i| (i % 253) as u8).collect();
    assert_eq!(
        client.put_bytes("/big.bin", &body).unwrap(),
        body.len() as u64
    );
    assert_eq!(client.get_bytes("/big.bin").unwrap(), body);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn gridftp_third_party_between_two_nests() {
    // Madison holds the input; the manager moves it to Argonne (paper §6
    // step 3) without the data passing through the manager.
    let madison = start_server("madison");
    let argonne = start_server("argonne");
    madison
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    argonne
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();

    // Stage input at Madison over plain FTP.
    let mut ftp = FtpClient::connect(madison.ftp_addr.unwrap()).unwrap();
    ftp.login("anonymous", "x").unwrap();
    let input: Vec<u8> = (0..200_000u32).map(|i| (i % 249) as u8).collect();
    ftp.stor_bytes("/input.dat", &input).unwrap();
    ftp.quit().unwrap();

    // Third-party: Madison → Argonne.
    let mut src = GridFtpClient::connect(madison.gridftp_addr.unwrap()).unwrap();
    let mut dst = GridFtpClient::connect(argonne.gridftp_addr.unwrap()).unwrap();
    src.ftp().login("anonymous", "x").unwrap();
    dst.ftp().login("anonymous", "x").unwrap();
    nest_proto::gridftp::third_party(&mut src, "/input.dat", &mut dst, "/staged.dat").unwrap();

    // Verify at Argonne.
    let mut check = FtpClient::connect(argonne.ftp_addr.unwrap()).unwrap();
    check.login("anonymous", "x").unwrap();
    assert_eq!(check.retr_bytes("/staged.dat").unwrap(), input);
    check.quit().unwrap();

    madison.shutdown();
    argonne.shutdown();
}

#[test]
fn nfs_mount_and_file_operations() {
    let server = start_server("nfs-e2e");
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    let addr = server.nfs_addr.unwrap();

    let mut mount = MountClient::connect(addr).unwrap();
    let root = mount.mount("/").unwrap();

    let mut nfs = NfsClient::connect(addr).unwrap();
    nfs.null().unwrap();

    // mkdir + create + write + read back.
    let (dir_fh, dir_attr) = nfs.mkdir(root, "jobs").unwrap();
    assert_eq!(dir_attr.ftype, nest_proto::nfs::NfsFileType::Directory);

    let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 241) as u8).collect();
    nfs.write_file(
        dir_fh,
        "out.dat",
        &mut std::io::Cursor::new(payload.clone()),
    )
    .unwrap();

    let (file_fh, attr) = nfs.lookup(dir_fh, "out.dat").unwrap();
    assert_eq!(attr.size as usize, payload.len());
    let mut readback = Vec::new();
    nfs.read_file(file_fh, &mut readback).unwrap();
    assert_eq!(readback, payload);

    // getattr and readdir.
    let attr2 = nfs.getattr(file_fh).unwrap();
    assert_eq!(attr2.size as usize, payload.len());
    assert_eq!(nfs.readdir(dir_fh).unwrap(), vec!["out.dat"]);

    // rename + remove + rmdir; stale handle afterwards.
    nfs.rename(dir_fh, "out.dat", dir_fh, "renamed.dat")
        .unwrap();
    nfs.remove(dir_fh, "renamed.dat").unwrap();
    nfs.rmdir(root, "jobs").unwrap();
    assert!(nfs.getattr(dir_fh).is_err());

    mount.unmount("/").unwrap();
    server.shutdown();
}

#[test]
fn nfs_lookup_missing_is_noent() {
    let server = start_server("nfs-noent");
    let addr = server.nfs_addr.unwrap();
    let mut mount = MountClient::connect(addr).unwrap();
    let root = mount.mount("/").unwrap();
    let mut nfs = NfsClient::connect(addr).unwrap();
    match nfs.lookup(root, "nothing") {
        Err(nest_proto::nfs::client::NfsError::Status(nest_proto::nfs::NfsStat::NoEnt)) => {}
        other => panic!("{:?}", other.map(|_| ())),
    }
    server.shutdown();
}

#[test]
fn cross_protocol_visibility() {
    // A file stored over HTTP is visible over Chirp, FTP and NFS — one
    // appliance, one namespace, many protocols.
    let server = start_server("cross-proto");
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();

    let body = b"shared across protocols".to_vec();
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    assert_eq!(http.put_bytes("/shared.txt", &body).unwrap(), 201);

    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    assert_eq!(chirp.get_bytes("/shared.txt").unwrap(), body);

    let mut ftp = FtpClient::connect(server.ftp_addr.unwrap()).unwrap();
    ftp.login("anonymous", "x").unwrap();
    assert_eq!(ftp.retr_bytes("/shared.txt").unwrap(), body);

    let addr = server.nfs_addr.unwrap();
    let mut mount = MountClient::connect(addr).unwrap();
    let root = mount.mount("/").unwrap();
    let mut nfs = NfsClient::connect(addr).unwrap();
    let (fh, _) = nfs.lookup(root, "shared.txt").unwrap();
    let mut readback = Vec::new();
    nfs.read_file(fh, &mut readback).unwrap();
    assert_eq!(readback, body);

    server.shutdown();
}

#[test]
fn acl_enforced_identically_across_protocols() {
    let server = start_server("acl-cross");
    server.grant_default_lot("alice", 1 << 20, 3600).unwrap();

    // alice locks the tree down: only she can read/write.
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    let cred = test_ca().issue("/O=Grid/CN=Alice");
    chirp.authenticate(&cred).unwrap();
    chirp.put_bytes("/secret.txt", b"classified").unwrap();
    chirp.setacl("/", "user:alice", "all").unwrap();
    chirp.setacl("/", "*", "none").unwrap(); // revoke everyone

    // Anonymous HTTP and FTP are now refused.
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    assert!(http.get_bytes("/secret.txt").is_err());
    let mut ftp = FtpClient::connect(server.ftp_addr.unwrap()).unwrap();
    ftp.login("anonymous", "x").unwrap();
    assert!(ftp.retr_bytes("/secret.txt").is_err());

    // alice still reads over Chirp.
    assert_eq!(chirp.get_bytes("/secret.txt").unwrap(), b"classified");
    server.shutdown();
}

#[test]
fn per_user_scheduling_classes_reach_stats() {
    // With per-user scheduling, transfer stats are keyed by user name
    // instead of protocol — the paper's per-user preferences extension.
    let config = NestConfig::builder("per-user")
        .gsi(test_ca(), gridmap())
        .sched_class(nest_core::config::SchedClass::User)
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();
    server.grant_default_lot("alice", 1 << 20, 3600).unwrap();
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();

    // alice over Chirp, anonymous over HTTP.
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    chirp
        .authenticate(&test_ca().issue("/O=Grid/CN=Alice"))
        .unwrap();
    chirp.put_bytes("/a.bin", &[1u8; 10_000]).unwrap();
    chirp.get_bytes("/a.bin").unwrap();
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    http.put_bytes("/h.bin", &[2u8; 5_000]).unwrap();

    let stats = server.dispatcher().transfer_stats();
    assert!(
        stats.classes.contains_key("alice"),
        "classes: {:?}",
        stats.classes.keys()
    );
    assert!(stats.classes.contains_key("anonymous"));
    assert!(!stats.classes.contains_key("chirp"));
    server.shutdown();
}

#[test]
fn nfs_truncate_via_setattr() {
    let server = start_server("nfs-setattr");
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    let addr = server.nfs_addr.unwrap();
    let mut mount = MountClient::connect(addr).unwrap();
    let root = mount.mount("/").unwrap();
    let mut nfs = NfsClient::connect(addr).unwrap();

    nfs.write_file(root, "t.bin", &mut std::io::Cursor::new(vec![7u8; 10_000]))
        .unwrap();
    let (fh, attr) = nfs.lookup(root, "t.bin").unwrap();
    assert_eq!(attr.size, 10_000);
    // Truncate to 100 bytes via SETATTR.
    let attr = nfs.truncate(fh, 100).unwrap();
    assert_eq!(attr.size, 100);
    let mut back = Vec::new();
    nfs.read_file(fh, &mut back).unwrap();
    assert_eq!(back, vec![7u8; 100]);
    // Truncate to zero releases lot accounting.
    nfs.truncate(fh, 0).unwrap();
    assert_eq!(nfs.getattr(fh).unwrap().size, 0);
    server.shutdown();
}

#[test]
fn nfs_write_and_setattr_obey_the_acl() {
    use nest_proto::nfs::client::NfsError;
    use nest_proto::nfs::NfsStat;
    use nest_proto::request::{NestRequest, NestResponse};

    let server = start_server("nfs-acl");
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    let addr = server.nfs_addr.unwrap();
    let mut mount = MountClient::connect(addr).unwrap();
    let root = mount.mount("/").unwrap();
    let mut nfs = NfsClient::connect(addr).unwrap();
    nfs.write_file(root, "ro.bin", &mut std::io::Cursor::new(vec![5u8; 1000]))
        .unwrap();
    let (fh, _) = nfs.lookup(root, "ro.bin").unwrap();

    // From here on everyone — the anonymous NFS client included — may
    // only read and look up.
    assert_eq!(
        server.dispatcher().execute_sync(
            &nest_storage::Principal::user("admin"),
            "chirp",
            &NestRequest::SetAcl {
                path: "/".into(),
                principal: "*".into(),
                rights: "rl".into(),
            }
        ),
        NestResponse::Ok
    );
    for (op, result) in [
        ("WRITE", nfs.write(fh, 0, &[9u8; 100]).map(drop)),
        ("SETATTR", nfs.truncate(fh, 0).map(drop)),
    ] {
        assert!(
            matches!(result, Err(NfsError::Status(NfsStat::Acces))),
            "{op}: {result:?}"
        );
    }
    let mut back = Vec::new();
    nfs.read_file(fh, &mut back).unwrap();
    assert_eq!(back, vec![5u8; 1000]);
    server.shutdown();
}

#[test]
fn localfs_backed_appliance_round_trips() {
    // The appliance over a real directory: bytes must land on disk and be
    // visible across protocols and across server restarts.
    let dir = std::env::temp_dir().join(format!("nest-localfs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = NestConfig::ephemeral("localfs");
    config.backend = nest_core::config::BackendKind::LocalFs(dir.clone());
    let server = NestServer::start(config).unwrap();
    server
        .grant_default_lot("anonymous", 8 << 20, 3600)
        .unwrap();

    let body: Vec<u8> = (0..123_457u32).map(|i| (i % 251) as u8).collect();
    // Three 256 KiB spans plus a ragged tail.
    let big: Vec<u8> = (0..3 * 256 * 1024 + 7u32)
        .map(|i| (i % 253) as u8)
        .collect();
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    chirp.mkdir("/persist").unwrap();
    chirp.put_bytes("/persist/data.bin", &body).unwrap();
    chirp.put_bytes("/persist/empty.bin", &[]).unwrap();
    chirp.put_bytes("/persist/big.bin", &big).unwrap();
    // The bytes are really on the host filesystem.
    let on_disk = std::fs::read(dir.join("persist/data.bin")).unwrap();
    assert_eq!(on_disk, body);
    server.shutdown();

    // A new appliance over the same root sees the data (manageability:
    // the appliance owns no hidden state beyond the directory). The
    // events model is pinned so every GET is eligible for sendfile.
    let mut config = NestConfig::ephemeral("localfs-2");
    config.backend = nest_core::config::BackendKind::LocalFs(dir.clone());
    config.model = ModelSelection::Fixed(ModelKind::Events);
    let server2 = NestServer::start(config).unwrap();
    let mut http = HttpClient::connect(server2.http_addr.unwrap()).unwrap();
    assert_eq!(http.get_bytes("/persist/data.bin").unwrap(), body);

    // Chirp and FTP stream mode reply through the same socket sink as
    // HTTP: exact bytes at both ends of the size range, and the
    // non-empty body leaves through sendfile.
    let mut chirp = ChirpClient::connect(server2.chirp_addr.unwrap()).unwrap();
    let mut ftp = FtpClient::connect(server2.ftp_addr.unwrap()).unwrap();
    ftp.login("anonymous", "test@").unwrap();
    ftp.type_binary().unwrap();
    assert!(chirp.get_bytes("/persist/empty.bin").unwrap().is_empty());
    assert!(ftp.retr_bytes("/persist/empty.bin").unwrap().is_empty());
    let mut sendfile_flows = || {
        let text = String::from_utf8(http.get_bytes("/nest/stats").unwrap()).unwrap();
        MetricsSnapshot::parse_text(&text)
            .get("transfer.zerocopy.sendfile_flows")
            .copied()
            .unwrap_or(0.0)
    };
    for front in ["chirp", "ftp"] {
        let before = sendfile_flows();
        let got = if front == "chirp" {
            let got = chirp.get_bytes("/persist/big.bin").unwrap();
            // The next reply waits for the GET's flow to complete, so its
            // counters are in the snapshot read below.
            chirp.stat("/persist/big.bin").unwrap();
            got
        } else {
            // The 226 reply already waits for the flow.
            ftp.retr_bytes("/persist/big.bin").unwrap()
        };
        assert!(got == big, "{front} GET diverged");
        assert!(sendfile_flows() > before, "{front} GET never used sendfile");
    }
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn group_lots_over_the_wire() {
    // The paper's "next release" feature: group lots, created and used
    // over Chirp by group members.
    let server = start_server("group-lots");
    // Make alice a member of "wind" in the server's group table.
    server
        .dispatcher()
        .storage()
        .acl()
        .set_group("wind", ["alice".to_owned(), "bob".to_owned()]);

    let mut alice = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    alice
        .authenticate(&test_ca().issue("/O=Grid/CN=Alice"))
        .unwrap();
    let lot = alice.lot_create_group("wind", 1 << 20, 3600).unwrap();

    // Alice (a member) can write into the group lot.
    alice
        .put_bytes("/shared-by-group.bin", &[1u8; 10_000])
        .unwrap();
    let info = alice.lot_stat(lot).unwrap();
    assert_eq!(info.owner, "group:wind");
    assert_eq!(info.used, 10_000);

    // A non-member cannot create a lot for that group...
    let mut anon = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    assert!(anon.lot_create_group("wind", 1 << 10, 60).is_err());
    // ...and a non-member's writes are refused for lack of a usable lot.
    assert!(anon.put_bytes("/intruder.bin", b"x").is_err());
    server.shutdown();
}

#[test]
fn four_party_transfer_via_chirp_command() {
    // Paper §2.1: the transfer manager "transfers data between different
    // protocol connections (allowing transparent three- and four-party
    // transfers)". Here a Chirp client asks the "broker" NeST to move a
    // file between two *other* NeSTs: four parties in total.
    let broker = start_server("broker");
    let source = start_server("source");
    let target = start_server("target");
    source
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    target
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();

    // Stage a file at the source.
    let body: Vec<u8> = (0..150_000u32).map(|i| (i % 233) as u8).collect();
    let mut stage = FtpClient::connect(source.ftp_addr.unwrap()).unwrap();
    stage.login("anonymous", "x").unwrap();
    stage.stor_bytes("/payload.bin", &body).unwrap();
    stage.quit().unwrap();

    // The client only ever talks to the broker.
    let mut client = ChirpClient::connect(broker.chirp_addr.unwrap()).unwrap();
    let src_url = nest_proto::request::TransferUrl::new(
        "gsiftp",
        "127.0.0.1",
        source.gridftp_addr.unwrap().port(),
        "/payload.bin",
    );
    let dst_url = nest_proto::request::TransferUrl::new(
        "gsiftp",
        "127.0.0.1",
        target.gridftp_addr.unwrap().port(),
        "/delivered.bin",
    );
    client.third_party(&src_url, &dst_url).unwrap();

    // The data moved source → target without touching broker or client.
    let mut check = FtpClient::connect(target.ftp_addr.unwrap()).unwrap();
    check.login("anonymous", "x").unwrap();
    assert_eq!(check.retr_bytes("/delivered.bin").unwrap(), body);
    assert_eq!(
        broker.dispatcher().transfer_stats().total_bytes(),
        0,
        "broker must not carry the payload"
    );

    broker.shutdown();
    source.shutdown();
    target.shutdown();
}

#[test]
fn acls_persist_across_restarts_on_disk() {
    // Manageability: a disk-backed appliance reloads its ACL configuration
    // after a restart (ACLs persist as a ClassAd collection in a sibling
    // file, outside the served namespace).
    let dir = std::env::temp_dir().join(format!("nest-aclpersist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(dir.with_extension("acls"));

    let start_disk = |name: &str| {
        let config = NestConfig::builder(name)
            .gsi(test_ca(), gridmap())
            .backend(nest_core::config::BackendKind::LocalFs(dir.clone()))
            .build()
            .unwrap();
        NestServer::start(config).unwrap()
    };

    let server = start_disk("acl-persist");
    server.grant_default_lot("alice", 1 << 20, 3600).unwrap();
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    chirp
        .authenticate(&test_ca().issue("/O=Grid/CN=Alice"))
        .unwrap();
    chirp.put_bytes("/locked.txt", b"private").unwrap();
    // Lock the tree to alice only.
    chirp.setacl("/", "user:alice", "all").unwrap();
    chirp.setacl("/", "*", "none").unwrap();
    server.shutdown();

    // Restart over the same root: the lockdown must survive.
    let server2 = start_disk("acl-persist-2");
    let mut http = HttpClient::connect(server2.http_addr.unwrap()).unwrap();
    assert!(
        http.get_bytes("/locked.txt").is_err(),
        "anonymous got through after restart"
    );
    let mut chirp2 = ChirpClient::connect(server2.chirp_addr.unwrap()).unwrap();
    chirp2
        .authenticate(&test_ca().issue("/O=Grid/CN=Alice"))
        .unwrap();
    assert_eq!(chirp2.get_bytes("/locked.txt").unwrap(), b"private");
    server2.shutdown();

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(dir.with_extension("acls"));
}

#[test]
fn ibp_depot_over_the_wire_and_lots_contrast() {
    // The paper's announced protocol addition (§3) and its §8 comparison:
    // IBP allocations are byte arrays named by capabilities, disjoint from
    // the file namespace that lots govern.
    use nest_proto::ibp::{IbpClient, Reliability};

    let config = NestConfig::builder("ibp-e2e")
        .gsi(test_ca(), gridmap())
        .ibp(true)
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();

    let mut ibp = IbpClient::connect(server.ibp_addr.unwrap()).unwrap();
    let caps = ibp.allocate(1 << 20, 3600, Reliability::Stable).unwrap();
    let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 231) as u8).collect();
    assert_eq!(
        ibp.store_bytes(&caps.write, &payload).unwrap(),
        payload.len() as u64
    );
    assert_eq!(ibp.load(&caps.read, 100, 50).unwrap(), &payload[100..150]);
    let probe = ibp.probe(&caps.manage).unwrap();
    assert_eq!(probe.stored, payload.len() as u64);
    assert_eq!(probe.reliability, Reliability::Stable);
    ibp.extend(&caps.manage, 100).unwrap();

    // §8 contrast, part 1: the byte array is invisible to the file
    // protocols — "it can be done but only if the client is willing to
    // build its own file system within the byte array."
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    assert_eq!(chirp.ls("/").unwrap(), Vec::<String>::new());

    // §8 contrast, part 2: capabilities are the only names — no path ever
    // existed, and deallocation revokes all access at once.
    ibp.decrement(&caps.manage).unwrap();
    assert!(ibp.load(&caps.read, 0, 1).is_err());
    ibp.quit().unwrap();
    server.shutdown();
}

#[test]
fn lots_persist_across_restarts_on_disk() {
    // Reservations must survive an appliance restart for the guarantee to
    // mean anything; the paper inherited this from kernel quotas.
    let dir = std::env::temp_dir().join(format!("nest-lotpersist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(dir.with_extension("lots"));
    let _ = std::fs::remove_file(dir.with_extension("lots.journal"));
    let _ = std::fs::remove_file(dir.with_extension("acls"));

    let start_disk = |name: &str| {
        let config = NestConfig::builder(name)
            .gsi(test_ca(), gridmap())
            .backend(nest_core::config::BackendKind::LocalFs(dir.clone()))
            .capacity(1 << 20)
            .build()
            .unwrap();
        NestServer::start(config).unwrap()
    };

    let lot_id;
    {
        let server = start_disk("lots-1");
        let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
        chirp
            .authenticate(&test_ca().issue("/O=Grid/CN=Alice"))
            .unwrap();
        lot_id = chirp.lot_create(600 << 10, 3600).unwrap();
        chirp.put_bytes("/kept.bin", &[9u8; 100_000]).unwrap();
        server.shutdown();
    }

    {
        let server = start_disk("lots-2");
        let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
        chirp
            .authenticate(&test_ca().issue("/O=Grid/CN=Alice"))
            .unwrap();
        // The lot is still there with its charge.
        let info = chirp.lot_stat(lot_id).unwrap();
        assert_eq!(info.capacity, 600 << 10);
        assert_eq!(info.used, 100_000);
        // The guarantee still binds: a second user cannot over-reserve.
        let mut anon_err = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
        assert!(anon_err.lot_create(600 << 10, 60).is_err()); // anonymous + no space anyway
                                                              // Deleting the file releases the restored charge.
        chirp.unlink("/kept.bin").unwrap();
        assert_eq!(chirp.lot_stat(lot_id).unwrap().used, 0);
        server.shutdown();
    }

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(dir.with_extension("lots"));
    let _ = std::fs::remove_file(dir.with_extension("lots.journal"));
    let _ = std::fs::remove_file(dir.with_extension("acls"));
}

#[test]
fn http_directory_listing() {
    let server = start_server("http-index");
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    http.put_bytes("/idx/one.txt", b"1").ok(); // parent missing: 404-ish
                                               // Build a small tree.
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    chirp.mkdir("/idx").unwrap();
    http.put_bytes("/idx/one.txt", b"1").unwrap();
    http.put_bytes("/idx/two.txt", b"22").unwrap();
    // GET on the directory returns a text index.
    let listing = String::from_utf8(http.get_bytes("/idx").unwrap()).unwrap();
    let mut names: Vec<&str> = listing.lines().collect();
    names.sort_unstable();
    assert_eq!(names, ["one.txt", "two.txt"]);
    server.shutdown();
}

#[test]
fn ftp_relative_paths_and_cwd() {
    let server = start_server("ftp-cwd");
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    let mut client = FtpClient::connect(server.ftp_addr.unwrap()).unwrap();
    client.login("anonymous", "x").unwrap();
    client.mkd("/proj").unwrap();
    client.mkd("/proj/data").unwrap();
    // Change into the tree; relative paths then resolve against the cwd.
    let r = client.command("CWD /proj/data").unwrap();
    assert_eq!(r.code, 250);
    let r = client.command("PWD").unwrap();
    assert!(r.text.contains("/proj/data"), "{}", r.text);
    client.stor_bytes("rel.bin", b"relative").unwrap();
    assert_eq!(
        client.retr_bytes("/proj/data/rel.bin").unwrap(),
        b"relative"
    );
    // `..` inside the tree is fine; escapes above the root are rejected.
    let r = client.command("CWD ..").unwrap();
    assert_eq!(r.code, 250);
    assert_eq!(client.retr_bytes("data/rel.bin").unwrap(), b"relative");
    let r = client.command("CWD ../../..").unwrap();
    assert_ne!(r.code, 250);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn gridftp_mode_e_edge_cases() {
    let server = start_server("gftp-edge");
    server
        .grant_default_lot("anonymous", 8 << 20, 3600)
        .unwrap();
    let mut client = GridFtpClient::connect(server.gridftp_addr.unwrap()).unwrap();
    client.ftp().login("anonymous", "x").unwrap();

    // Zero-byte file over 4 parallel streams: only control blocks flow.
    client.set_parallelism(4).unwrap();
    assert_eq!(client.put_bytes("/zero.bin", b"").unwrap(), 0);
    assert_eq!(client.get_bytes("/zero.bin").unwrap(), b"");

    // More streams than 64 KB chunks: some streams carry no data blocks.
    let tiny = vec![5u8; 10_000];
    client.set_parallelism(8).unwrap();
    assert_eq!(
        client.put_bytes("/tiny.bin", &tiny).unwrap(),
        tiny.len() as u64
    );
    assert_eq!(client.get_bytes("/tiny.bin").unwrap(), tiny);

    // Parallelism changes between transfers on one session.
    client.set_parallelism(2).unwrap();
    let medium = vec![6u8; 500_000];
    assert_eq!(
        client.put_bytes("/medium.bin", &medium).unwrap(),
        medium.len() as u64
    );
    assert_eq!(client.get_bytes("/medium.bin").unwrap(), medium);
    client.quit().unwrap();
    server.shutdown();
}
