//! Model-checked scenarios for the most-contended lock classes in
//! the appliance, run **unmodified** production types under exhaustive
//! interleaving exploration:
//!
//! | scenario            | lock class(es) under test                      |
//! |---------------------|------------------------------------------------|
//! | stride scheduler    | `transfer.sched` (scheduler behind one mutex)  |
//! | buffer pool         | `transfer.bufpool.free`                        |
//! | handle cache        | `storage.handlecache.state` epoch guard        |
//! | session admission   | lock-free `active` counter protocol            |
//! | lot table           | `storage.lot` charge vs. release vs. reclaim   |
//! | growing writes      | `storage.lot` charge-to-end in `write_chunk`   |
//! | lot journal         | `storage.lot.journal` append order vs. table   |
//! | session live map    | `core.session.live` drain vs. self-removal     |
//!
//! Every schedule executes the real crate code; the `invariant!`
//! conservation checks inside it (stride ticket conservation, bufpool
//! outstanding/idle accounting, handle-cache capacity, per-lot byte
//! conservation) fire under *every* interleaving, not just
//! the ones a stress test happens to hit. All scenarios explore
//! exhaustively (no preemption bound): they are sized so the full
//! schedule space fits the `scripts/check.sh` wall-clock budget.
#![cfg(feature = "model")]

use nest_model::{check, thread, Config};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Stride scheduler behind one named mutex: one thread retunes class
/// tickets (the manager's knob path) while another drains passes (the
/// engine path). `set_tickets` carries flow-conservation and
/// pass-rescale `invariant!`s that must hold at every interleaving.
#[test]
fn stride_retune_vs_drain_is_clean() {
    use nest_transfer::flow::{FlowId, FlowMeta};
    use nest_transfer::sched::{Scheduler, StrideScheduler};

    let report = check(&Config::exhaustive(), || {
        let sched = Arc::new(Mutex::named("model.stride", 900, StrideScheduler::new()));
        {
            let mut s = sched.lock();
            s.admit(&FlowMeta::new(FlowId(1), "http", Some(1 << 20)));
            s.admit(&FlowMeta::new(FlowId(2), "ftp", Some(1 << 20)));
        }
        let tuner = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || {
                sched.lock().set_tickets("http", 300);
                sched.lock().set_tickets("ftp", 50);
            })
        };
        let engine = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || {
                for _ in 0..2 {
                    let mut s = sched.lock();
                    if let Some(id) = s.next() {
                        s.account(id, 4096);
                    }
                }
            })
        };
        tuner.join();
        engine.join();
        // Nothing completed, so both flows must still be runnable no
        // matter how the retune interleaved with the passes.
        assert_eq!(sched.lock().runnable(), 2);
    });
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
}

/// Two threads checking out and returning pooled buffers. `note_return`
/// asserts `outstanding >= 0` and `free.len() <= max_idle`; with
/// `max_idle = 1` the interleavings where both returns race decide which
/// buffer is retired, and the accounting must survive all of them.
#[test]
fn bufpool_concurrent_checkout_return_is_clean() {
    use nest_transfer::BufPool;

    let report = check(&Config::exhaustive(), || {
        let pool = Arc::new(BufPool::new(1024, 1));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    let buf = pool.checkout();
                    drop(buf);
                })
            })
            .collect();
        for w in workers {
            w.join();
        }
        let stats = pool.stats();
        assert_eq!(stats.outstanding, 0);
        assert!(stats.idle <= 1);
    });
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
}

/// The handle-cache epoch guard: an opener races `invalidate`. The
/// stale-handle hazard is an opener that looked up at epoch `e`, opened
/// the file, and inserts after an invalidation bumped the epoch — the
/// guard must drop that insert. The cached-handle postcondition is
/// exact: the final lookup hits **iff** the opener's captured epoch
/// equals the final epoch (i.e. the open happened entirely after the
/// invalidation).
#[test]
fn handle_cache_epoch_guard_never_caches_stale() {
    use nest_storage::handle_cache::{HandleCache, Lookup};
    use nest_storage::VPath;
    use std::fs::File;

    // One real file, created once; every schedule re-opens it.
    let dir = std::env::temp_dir().join(format!("nest-model-hc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let host = dir.join("obj");
    std::fs::write(&host, b"payload").expect("write scratch file");

    let report = check(&Config::exhaustive(), move || {
        let cache = Arc::new(HandleCache::new(4));
        let path = VPath::parse("/model/obj").expect("valid vpath");

        let opener = {
            let cache = Arc::clone(&cache);
            let path = path.clone();
            let host = host.clone();
            thread::spawn(move || {
                let Lookup::Miss { epoch } = cache.lookup(&path, false) else {
                    panic!("fresh cache cannot hit");
                };
                let file = Arc::new(File::open(&host).expect("open"));
                cache.insert(&path, file, false, epoch);
                epoch
            })
        };
        let invalidator = {
            let cache = Arc::clone(&cache);
            let path = path.clone();
            thread::spawn(move || cache.invalidate(&path))
        };
        let opened_at = opener.join();
        invalidator.join();

        let hit = matches!(cache.lookup(&path, false), Lookup::Hit(_));
        let guard_allows = opened_at == cache.epoch();
        assert_eq!(
            hit,
            guard_allows,
            "handle cached across an invalidation (opened at epoch \
             {opened_at}, final epoch {})",
            cache.epoch()
        );
    });
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// The session admission counter protocol (`core::session`): admitters
/// run `fetch_add` / check-over-cap / compensating `fetch_sub`, and
/// admitted sessions `fetch_sub` on release. Modeled with
/// [`nest_model::atomic::AtomicUsize`] so every individual atomic op is
/// a scheduling point. A [`Config::invariant`] hook checks at **every**
/// step that the number of concurrently admitted sessions never exceeds
/// the cap — the transient overshoot of `active` itself (each admitter
/// adds before checking) is the allowed slack the compensation exists
/// to repair.
#[test]
fn session_admission_never_overshoots_cap() {
    use nest_model::atomic::AtomicUsize;

    const CAP: usize = 1;
    const ADMITTERS: usize = 2;

    // Shared across schedules (reset by the scenario root); the
    // invariant hook reads them lock-free from the controller.
    let active = Arc::new(AtomicUsize::new(0));
    let admitted = Arc::new(AtomicUsize::new(0));

    let inv_admitted = Arc::clone(&admitted);
    let inv_active = Arc::clone(&active);
    let config = Config {
        invariant: Some(Arc::new(move || {
            let now = inv_admitted.get();
            if now > CAP {
                return Err(format!("{now} sessions admitted concurrently (cap {CAP})"));
            }
            if inv_active.get() > CAP + ADMITTERS {
                return Err("active counter exceeds cap + in-flight".into());
            }
            Ok(())
        })),
        ..Config::exhaustive()
    };

    let scenario_active = Arc::clone(&active);
    let scenario_admitted = Arc::clone(&admitted);
    let report = check(&config, move || {
        scenario_active.store(0, Ordering::SeqCst);
        scenario_admitted.store(0, Ordering::SeqCst);
        let workers: Vec<_> = (0..ADMITTERS)
            .map(|_| {
                let active = Arc::clone(&scenario_active);
                let admitted = Arc::clone(&scenario_admitted);
                thread::spawn(move || {
                    // session.rs admit(): add first, check, compensate.
                    let prev = active.fetch_add(1, Ordering::SeqCst);
                    if prev >= CAP {
                        active.fetch_sub(1, Ordering::SeqCst);
                        return false; // rejected with the overload reply
                    }
                    admitted.fetch_add(1, Ordering::SeqCst);
                    // ... session runs; on_closed() releases both.
                    admitted.fetch_sub(1, Ordering::SeqCst);
                    active.fetch_sub(1, Ordering::SeqCst);
                    true
                })
            })
            .collect();
        let admitted_count = workers
            .into_iter()
            .map(|w| w.join())
            .filter(|ok| *ok)
            .count();
        // The cap admits at least one: both racing admitters cannot
        // reject each other (the first `fetch_add` to land sees prev 0).
        assert!(admitted_count >= 1, "admission starved under cap {CAP}");
        assert_eq!(scenario_active.get(), 0, "active counter leaked");
    });
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
}

/// Lot-table byte conservation (`storage.lot`, one lock): a charge into
/// the active lot, a release of an earlier charge, and an admission that
/// only fits once the expired best-effort lot is reclaimed all race.
/// Under every interleaving the global promise invariant
/// Σ active capacities + Σ best-effort used ≤ total capacity holds, the
/// charge and release each land exactly once, and reclamation removes
/// exactly the expired victim.
#[test]
fn lot_charge_release_evict_conserves_bytes() {
    use nest_storage::lot::{LotManager, LotOwner, ReclaimPolicy};
    use nest_storage::VPath;
    use std::collections::HashSet;

    let report = check(&Config::exhaustive(), || {
        let mgr = Arc::new(LotManager::new(100, ReclaimPolicy::ExpiredFirst));
        let f0 = VPath::parse("/model/f0").expect("valid vpath");
        let f1 = VPath::parse("/model/f1").expect("valid vpath");
        let f2 = VPath::parse("/model/f2").expect("valid vpath");
        let no_groups = HashSet::new();

        // Lot 1: active for user "u", pre-charged 5 bytes (f0).
        // Lot 2: expires at t=1 holding 25 bytes (f2) — the best-effort
        // reclaim victim once the clock reads 10.
        let (active_id, _) = mgr
            .create(LotOwner::User("u".into()), 40, 1000, 0)
            .expect("active lot");
        let (victim_id, _) = mgr
            .create(LotOwner::User("v".into()), 40, 1, 0)
            .expect("victim lot");
        mgr.charge_file("u", &no_groups, &f0, 5, 0)
            .expect("seed f0");
        mgr.charge_file("v", &no_groups, &f2, 25, 0)
            .expect("seed f2");

        let charger = {
            let mgr = Arc::clone(&mgr);
            let f1 = f1.clone();
            thread::spawn(move || mgr.charge_file("u", &HashSet::new(), &f1, 30, 10))
        };
        let releaser = {
            let mgr = Arc::clone(&mgr);
            let f0 = f0.clone();
            thread::spawn(move || mgr.release_file(&f0))
        };
        // 40 active + 25 best-effort + 55 > 100: the admission must
        // reclaim lot 2 (expired, 25 used) to fit.
        let admitter = {
            let mgr = Arc::clone(&mgr);
            thread::spawn(move || mgr.create(LotOwner::User("w".into()), 55, 1000, 10))
        };
        charger
            .join()
            .expect("30-byte charge always fits the active lot");
        assert_eq!(releaser.join(), 5, "release returns the exact charge");
        let (_, evicted) = admitter.join().expect("admission fits after reclaim");
        assert_eq!(evicted.lots, vec![victim_id], "only the expired lot dies");
        assert_eq!(evicted.files, vec![f2.clone()], "its file is handed back");

        // Conservation, whatever the schedule: active lots promise their
        // capacity, best-effort lots their occupancy, and the total never
        // exceeds physical capacity.
        let lots = mgr.all_lots();
        let promised: u64 = lots
            .iter()
            .map(|l| if l.is_expired(10) { l.used } else { l.capacity })
            .sum();
        assert!(
            promised <= mgr.total_capacity(),
            "over-promised: {promised} > {}",
            mgr.total_capacity()
        );
        let active = lots
            .iter()
            .find(|l| l.id == active_id)
            .expect("active lot survives reclamation");
        assert_eq!(active.used, 30, "f0 released and f1 charged exactly once");
        assert!(!lots.iter().any(|l| l.id == victim_id), "victim is gone");
    });
    eprintln!("lot_charge_release_evict_conserves_bytes: {report:?}");
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
}

/// Two NFS-style block writes grow one file through
/// `StorageManager::write_chunk`, at offsets 0 and 8 KiB. Each charges
/// the file's lots for its growth; however the two stats, charges and
/// backend writes interleave, the lot ends up charged exactly the final
/// file size — reading the charge and adding to it in two lot-table
/// calls lets both writes see a charge of 0 and charge 24 KiB for a
/// 16 KiB file.
#[test]
fn racing_growing_writes_charge_the_final_size() {
    use nest_storage::lot::ReclaimPolicy;
    use nest_storage::{AclTable, MemBackend, Principal, StorageManager, VPath};

    let report = check(&Config::exhaustive(), || {
        let sm = Arc::new(StorageManager::new(
            Arc::new(MemBackend::new()),
            AclTable::open_by_default(),
            1 << 20,
            ReclaimPolicy::ExpiredFirst,
        ));
        let who = Principal::user("u");
        let path = VPath::parse("/grown").expect("valid vpath");
        let lot = sm.lot_create(&who, 1 << 16, 3600).expect("lot");
        sm.begin_put(&who, "nfs", &path, 0).expect("create");

        let writers: Vec<_> = [0u64, 8192]
            .into_iter()
            .map(|offset| {
                let (sm, who, path) = (Arc::clone(&sm), who.clone(), path.clone());
                thread::spawn(move || {
                    sm.write_chunk(&who, &path, offset, &[7; 8192])
                        .expect("write fits the lot")
                })
            })
            .collect();
        for w in writers {
            w.join();
        }

        let size = sm.stat(&who, "nfs", &path).expect("stat").size;
        assert_eq!(size, 16384);
        let used = sm.lot_stat(&who, lot).expect("lot").used;
        assert_eq!(
            used, size,
            "the lot holds {used} bytes for a {size}-byte file"
        );
    });
    eprintln!("racing_growing_writes_charge_the_final_size: {report:?}");
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none(), "{report:?}");
}

/// The lot journal's ordering rule (DESIGN §18): one thread charges a
/// path and another releases it, and each then appends the state of the
/// keys it touched, rendered from the live table while the journal lock
/// is held. However
/// the two mutations and the two appends interleave — including the
/// appends landing in the opposite order to the mutations — the last
/// record for the path is its newest state, so the snapshot plus the
/// journal replays to the live table byte for byte.
#[test]
fn lot_journal_replay_matches_live_state_under_racing_appends() {
    use nest_storage::lot::{LotKey, LotManager, LotOwner, ReclaimPolicy};
    use nest_storage::{LotJournal, VPath};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    let dir = std::env::temp_dir().join(format!("nest-model-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let runs = AtomicU64::new(0);
    let scratch = dir.clone();
    let report = check(&Config::exhaustive(), move || {
        let store = scratch.join(format!("{}.lots", runs.fetch_add(1, Ordering::SeqCst)));
        let (journal, _) = LotJournal::open(&store).expect("open journal");
        let lots = Arc::new(LotManager::new(1000, ReclaimPolicy::ExpiredFirst));
        let path = VPath::parse("/model/f").expect("valid vpath");
        lots.create(LotOwner::User("u".into()), 100, 1000, 0)
            .expect("lot");
        lots.charge_file("u", &HashSet::new(), &path, 10, 0)
            .expect("seed charge");
        journal.compact(&lots).expect("snapshot");
        let journal = Arc::new(journal);

        let charger = {
            let (lots, journal, path) = (Arc::clone(&lots), Arc::clone(&journal), path.clone());
            thread::spawn(move || {
                // The charge also stamps its lot's `last_access`, which
                // the path's record cannot carry once the release won.
                let charged = lots
                    .charge_file("u", &HashSet::new(), &path, 20, 1)
                    .expect("fits the lot");
                let mut keys = vec![LotKey::Path(&path)];
                keys.extend(charged.into_iter().map(LotKey::Lot));
                journal.append(&lots, &keys).expect("append");
            })
        };
        let releaser = {
            let (lots, journal, path) = (Arc::clone(&lots), Arc::clone(&journal), path.clone());
            thread::spawn(move || {
                lots.release_file(&path);
                journal
                    .append(&lots, &[LotKey::Path(&path)])
                    .expect("append");
            })
        };
        charger.join();
        releaser.join();

        let (_, recovered) = LotJournal::open(&store).expect("reopen journal");
        let (replayed, _) =
            LotManager::restore(&recovered.text, 1000, ReclaimPolicy::ExpiredFirst, 1);
        assert_eq!(
            replayed.snapshot(),
            lots.snapshot(),
            "the journal's last record for the path is not its newest state"
        );
    });
    eprintln!("lot_journal_replay_matches_live_state_under_racing_appends: {report:?}");
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// The session registry's admit-vs-drain consistency: `serve()` removes
/// a finished connection from its pool's `live` map while `drain` locks
/// the map and hard-closes whatever is still present. Under every
/// interleaving of the walk with concurrent self-removal, each admitted
/// connection deregisters exactly once, the registry ends empty, and the
/// walk never counts a connection that had already left the map.
#[test]
fn live_registry_drain_vs_removal_is_consistent() {
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;

    let report = check(&Config::exhaustive(), || {
        let live: Arc<Mutex<HashMap<u64, ()>>> =
            Arc::new(Mutex::named("model.session.live", 902, HashMap::new()));
        let active = Arc::new(AtomicUsize::new(0));
        let hard_closed = Arc::new(AtomicUsize::new(0));

        // Two connections, both admitted before the drain begins — the
        // stop-accepting barrier in the real layer guarantees no
        // admissions race the walk.
        for id in [0u64, 1u64] {
            active.fetch_add(1, Ordering::SeqCst);
            live.lock().insert(id, ());
        }

        let workers: Vec<_> = [0u64, 1u64]
            .into_iter()
            .map(|id| {
                let live = Arc::clone(&live);
                let active = Arc::clone(&active);
                thread::spawn(move || {
                    // serve(): the request stream ends (naturally or cut
                    // by the drain's shutdown) and the worker deregisters.
                    let was_live = live.lock().remove(&id).is_some();
                    assert!(was_live, "a connection deregisters exactly once");
                    active.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let drainer = {
            let live = Arc::clone(&live);
            let hard_closed = Arc::clone(&hard_closed);
            thread::spawn(move || {
                // drain(): every entry still present gets its stream shut
                // down and counted.
                let n = live.lock().len();
                hard_closed.fetch_add(n, Ordering::SeqCst);
            })
        };
        for w in workers {
            w.join();
        }
        drainer.join();

        assert_eq!(
            active.load(Ordering::SeqCst),
            0,
            "every admission released exactly once"
        );
        assert_eq!(live.lock().len(), 0, "registry drains to empty");
        assert!(
            hard_closed.load(Ordering::SeqCst) <= 2,
            "the walk never double-counts a connection"
        );
    });
    eprintln!("live_registry_drain_vs_removal_is_consistent: {report:?}");
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
}
