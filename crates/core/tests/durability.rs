//! Lot and ACL state across a restart that nobody announced: a second
//! `Dispatcher` opens the same root while the first is still running —
//! no shutdown and no `persist_lots` — exactly what a restart after
//! `kill -9` sees on disk.

use nest_core::config::{BackendKind, NestConfig};
use nest_core::dispatcher::Dispatcher;
use nest_core::server::NestServer;
use nest_proto::nfs::{MountClient, NfsClient};
use nest_proto::request::{NestRequest, NestResponse};
use nest_storage::lot::LotOwner;
use nest_storage::{AclTable, LotId, Principal, VPath};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// A fresh storage root whose sibling `.lots` / `.acls` files live in a
/// per-test parent directory.
fn scratch_root(tag: &str) -> PathBuf {
    let parent = std::env::temp_dir().join(format!("nest-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&parent);
    std::fs::create_dir_all(&parent).unwrap();
    parent.join("root")
}

fn disk_config(root: &Path, capacity: u64) -> NestConfig {
    let mut config = NestConfig::ephemeral("durability");
    config.backend = BackendKind::LocalFs(root.to_path_buf());
    config.capacity = capacity;
    config
}

fn sibling(root: &Path, suffix: &str) -> PathBuf {
    let mut name = root.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

fn now_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap()
        .as_secs()
}

/// xorshift64: the op stream is a function of the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn put(d: &Dispatcher, who: &Principal, path: &str, len: usize) -> bool {
    let Ok(vp) = d.admit_put(who, "chirp", path, Some(len as u64)) else {
        return false;
    };
    d.transfer_put(
        who,
        "chirp",
        &vp,
        Box::new(io::Cursor::new(vec![7u8; len])),
        Some(len as u64),
    )
    .is_ok()
}

fn sync(d: &Dispatcher, who: &Principal, req: NestRequest) -> NestResponse {
    d.execute_sync(who, "chirp", &req)
}

/// Runs a seeded mix of PUT, overwrite, DELETE, rename, lot create /
/// renew / terminate, NFS growth and one capacity-driven eviction
/// through a disk-backed dispatcher, crossing at least one journal
/// compaction, then opens a second dispatcher on the same root.
fn replay_matches_live_state(seed: u64) {
    let root = scratch_root(&format!("mix-{seed}"));
    const CAPACITY: u64 = 16 << 20;
    let config = disk_config(&root, CAPACITY);
    let d = Dispatcher::new(&config).unwrap();
    let sm = d.storage();
    let alice = Principal::user("alice");
    let bob = Principal::user("bob");
    let anon = Principal::anonymous();
    let main_lot = sm
        .admin_grant_lot(LotOwner::User("alice".into()), 4 << 20, 3600)
        .unwrap();
    sm.admin_grant_lot(LotOwner::User("anonymous".into()), 2 << 20, 3600)
        .unwrap();
    // Bob's lot turns best-effort within two seconds; the eviction at
    // the end reclaims it.
    let bob_lot = sm
        .admin_grant_lot(LotOwner::User("bob".into()), 4 << 20, 2)
        .unwrap();
    for i in 0..3 {
        assert!(put(&d, &bob, &format!("/bob-{i}"), 1 << 20));
    }
    sync(
        &d,
        &alice,
        NestRequest::Mkdir {
            path: "/data".into(),
        },
    );
    let long = "x".repeat(80);
    let paths: Vec<String> = (0..12).map(|i| format!("/data/{long}-{i}")).collect();
    let grow = VPath::parse("/nfs-grow.dat").unwrap();
    d.admit_put(&anon, "nfs", "/nfs-grow.dat", Some(0)).unwrap();

    let mut rng = Rng(seed);
    for _ in 0..700 {
        let path = &paths[rng.below(paths.len() as u64) as usize];
        let alice_lots: Vec<u64> = sm
            .lot_list(&alice)
            .iter()
            .map(|l| l.id.0)
            .filter(|id| *id != main_lot.0)
            .collect();
        let some_lot = (!alice_lots.is_empty())
            .then(|| alice_lots[rng.below(alice_lots.len() as u64) as usize]);
        match (rng.below(10), some_lot) {
            (0..=3, _) => {
                put(&d, &alice, path, rng.below(4096) as usize);
            }
            (4, _) => {
                sync(&d, &alice, NestRequest::Delete { path: path.clone() });
            }
            (5, _) => {
                let to = paths[rng.below(paths.len() as u64) as usize].clone();
                sync(
                    &d,
                    &alice,
                    NestRequest::Rename {
                        from: path.clone(),
                        to,
                    },
                );
            }
            (6, _) => {
                sync(
                    &d,
                    &alice,
                    NestRequest::LotCreate {
                        capacity: 4096 + rng.below(12 << 10),
                        duration: 3600,
                    },
                );
            }
            (7, Some(id)) => {
                sync(&d, &alice, NestRequest::LotRenew { id, extra: 60 });
            }
            (8, Some(id)) => {
                sync(&d, &alice, NestRequest::LotTerminate { id });
            }
            _ => {
                let size = sm.stat(&anon, "nfs", &grow).unwrap().size;
                if size < 1 << 20 {
                    d.write_block(&anon, "nfs", &grow, size, vec![3u8; 512])
                        .unwrap();
                }
            }
        }
    }

    // Once Bob's lot is best-effort, a lot that only fits without his
    // bytes evicts it and deletes his files.
    let lm = sm.lot_manager();
    while !lm.stat(bob_lot).unwrap().is_expired(now_secs()) {
        std::thread::sleep(Duration::from_millis(50));
    }
    let fits = CAPACITY - lm.guaranteed(now_secs()) - (1 << 20);
    assert!(matches!(
        sync(
            &d,
            &alice,
            NestRequest::LotCreate {
                capacity: fits,
                duration: 3600
            }
        ),
        NestResponse::OkLot(_)
    ));
    assert!(lm.stat(bob_lot).is_err(), "bob's lot was not evicted");
    put(&d, &alice, &paths[0], 100);

    let stats = d.metrics_snapshot();
    assert!(
        stats.count("storage.lot.journal.compactions") >= 2,
        "{stats:?}"
    );
    assert!(stats.count("storage.reclaim.events") >= 1);
    let live = lm.snapshot();
    let restarted = Dispatcher::new(&config).unwrap();
    assert_eq!(restarted.storage().lot_manager().snapshot(), live);
    // Restart compacted: the snapshot file alone now holds the table.
    assert_eq!(
        std::fs::read_to_string(sibling(&root, ".lots")).unwrap(),
        live
    );
    assert_eq!(
        std::fs::metadata(sibling(&root, ".lots.journal"))
            .unwrap()
            .len(),
        0
    );
    restarted.shutdown();
    d.shutdown();
    let _ = std::fs::remove_dir_all(root.parent().unwrap());
}

#[test]
fn journal_replays_a_seeded_op_mix_to_the_live_table() {
    replay_matches_live_state(0x9E37_79B9_7F4A_7C15);
}

#[test]
fn journal_replays_a_second_seeded_op_mix_to_the_live_table() {
    replay_matches_live_state(0xD1B5_4A32_D192_ED03);
}

/// NFS REMOVE, RENAME and a growing WRITE change lot charges through
/// the storage manager, so a restart sees them with no checkpoint.
#[test]
fn nfs_mutations_survive_a_restart_without_a_checkpoint() {
    let root = scratch_root("nfs");
    let server = NestServer::start(disk_config(&root, 1 << 24)).unwrap();
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    let addr = server.nfs_addr.unwrap();
    let mut mount = MountClient::connect(addr).unwrap();
    let dir = mount.mount("/").unwrap();
    let mut nfs = NfsClient::connect(addr).unwrap();

    let (grown, _) = nfs.create(dir, "grown.dat").unwrap();
    for block in 0..4u32 {
        nfs.write(grown, block * 8192, &[block as u8; 8192])
            .unwrap();
    }
    let (moved, _) = nfs.create(dir, "old.dat").unwrap();
    nfs.write(moved, 0, &[1u8; 3000]).unwrap();
    nfs.rename(dir, "old.dat", dir, "new.dat").unwrap();
    let (gone, _) = nfs.create(dir, "gone.dat").unwrap();
    nfs.write(gone, 0, &[2u8; 5000]).unwrap();
    nfs.remove(dir, "gone.dat").unwrap();

    let lm = server.dispatcher().storage().lot_manager();
    let live = lm.snapshot();
    let used: u64 = lm.all_lots().iter().map(|l| l.used).sum();
    assert_eq!(used, 4 * 8192 + 3000);
    let restarted = Dispatcher::new(&disk_config(&root, 1 << 24)).unwrap();
    assert_eq!(restarted.storage().lot_manager().snapshot(), live);
    restarted.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(root.parent().unwrap());
}

/// A journal record whose checksum fails is counted on restart, and the
/// records after it still apply.
#[test]
fn a_corrupt_journal_record_is_counted_and_later_records_apply() {
    let root = scratch_root("corrupt");
    let config = disk_config(&root, 1 << 24);
    let d = Dispatcher::new(&config).unwrap();
    d.storage()
        .admin_grant_lot(LotOwner::User("anonymous".into()), 1 << 20, 3600)
        .unwrap();
    assert!(put(&d, &Principal::anonymous(), "/kept", 100));
    let live = d.storage().lot_manager().snapshot();
    // The grant's record is the first: `lot 1 …` becomes `Lot 1 …`.
    let journal = sibling(&root, ".lots.journal");
    let mut bytes = std::fs::read(&journal).unwrap();
    bytes[8] ^= 0x20;
    std::fs::write(&journal, bytes).unwrap();

    let restarted = Dispatcher::new(&config).unwrap();
    let stats = restarted.metrics_snapshot();
    assert_eq!(stats.count("storage.lot.journal.corrupt_records"), 1);
    // The PUT's record carries its lot's header, so nothing is lost.
    assert_eq!(restarted.storage().lot_manager().snapshot(), live);
    restarted.shutdown();
    d.shutdown();
    let _ = std::fs::remove_dir_all(root.parent().unwrap());
}

/// A `.lots` file in the format written before the journal existed is a
/// snapshot with an empty journal: it restores unchanged.
#[test]
fn a_lot_table_written_before_the_journal_restores_unchanged() {
    let root = scratch_root("legacy");
    let table = "lot 1 user anonymous 1048576 4102444800 1760000000\n\
                 file 1 100 /a\n\
                 file 1 50 /dir/b c\n\
                 lot 2 group wind 2048 4102444800 1760000005\n\
                 file 2 10 /g\n";
    std::fs::write(sibling(&root, ".lots"), table).unwrap();
    let d = Dispatcher::new(&disk_config(&root, 1 << 24)).unwrap();
    assert_eq!(d.storage().lot_manager().snapshot(), table);
    assert_eq!(d.storage().lot_manager().stat(LotId(1)).unwrap().used, 150);
    d.shutdown();
    let _ = std::fs::remove_dir_all(root.parent().unwrap());
}

/// An ACL table cut mid-line could have lost a deny entry: the appliance
/// refuses to start rather than run with a weaker table.
#[test]
fn a_torn_acl_table_refuses_to_start() {
    let root = scratch_root("acl");
    let acl = AclTable::new();
    acl.set_acl(
        VPath::root(),
        vec![nest_storage::AclEntry::new(
            nest_storage::acl::Who::User("alice".into()),
            "all",
        )],
    );
    acl.set_acl(
        VPath::parse("/private").unwrap(),
        vec![nest_storage::AclEntry::new(
            nest_storage::acl::Who::Everyone,
            "none",
        )],
    );
    let lines: Vec<String> = acl.to_classads().iter().map(|ad| ad.to_string()).collect();
    let torn = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
    std::fs::write(sibling(&root, ".acls"), torn).unwrap();
    let err = match Dispatcher::new(&disk_config(&root, 1 << 20)) {
        Ok(_) => panic!("started with a torn ACL table"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("line 2"), "{err}");

    // The whole table, rewritten atomically by SetAcl, loads again.
    std::fs::write(sibling(&root, ".acls"), lines.join("\n")).unwrap();
    let d = Dispatcher::new(&disk_config(&root, 1 << 20)).unwrap();
    assert_eq!(
        d.execute_sync(
            &Principal::user("alice"),
            "chirp",
            &NestRequest::SetAcl {
                path: "/".into(),
                principal: "user:bob".into(),
                rights: "rl".into(),
            }
        ),
        NestResponse::Ok
    );
    d.shutdown();
    let d = Dispatcher::new(&disk_config(&root, 1 << 20)).unwrap();
    let entries = d.storage().acl().effective_acl(&VPath::root());
    assert_eq!(entries.len(), 2, "{entries:?}");
    d.shutdown();
    let _ = std::fs::remove_dir_all(root.parent().unwrap());
}
