//! Model-checked scenarios for the most-contended lock classes in
//! the appliance, run **unmodified** production types under exhaustive
//! interleaving exploration:
//!
//! | scenario            | lock class(es) under test                      |
//! |---------------------|------------------------------------------------|
//! | stride scheduler    | `transfer.sched` (scheduler behind one mutex)  |
//! | buffer pool         | `transfer.bufpool.free`                        |
//! | handle cache        | `storage.handle_cache.state` epoch guard       |
//! | memory tier         | `storage.memtier.state` flush vs. evict        |
//! | session admission   | lock-free `active` counter protocol            |
//! | striped lot table   | `storage.lot` cells + sloppy `committed` bound |
//! | sharded live map    | striped registry walk vs. self-removal         |
//!
//! Every schedule executes the real crate code; the `invariant!`
//! conservation checks inside it (stride ticket conservation, bufpool
//! outstanding/idle accounting, handle-cache capacity, mem-tier budget,
//! per-lot byte conservation) fire under *every* interleaving, not just
//! the ones a stress test happens to hit. All scenarios explore
//! exhaustively (no preemption bound): they are sized so the full
//! schedule space fits the `scripts/check.sh` wall-clock budget.
#![cfg(feature = "model")]

use nest_model::{check, thread, Config};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The flush/evict scenario's persist sink: (version, bytes) records.
type PersistLog = Arc<Mutex<Vec<(u64, Vec<u8>)>>>;

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

/// The mem-tier write-back conservation property (flush vs. evict vs. a
/// concurrent overwrite): dirty bytes are never lost and never
/// double-flushed.
///
/// Three tasks race over one object seeded dirty at version 1:
/// a *writer* overwrites it (version 2), a *flusher* runs the
/// snapshot → persist → `mark_clean` protocol, and an *evictor* runs
/// `invalidate`, persisting the dirty copy it gets back. Afterwards:
///
/// * every surviving resident that is **clean** has had its exact
///   version persisted (`mark_clean`'s version guard — a flush of v1
///   must not launder a concurrent v2 into "clean");
/// * if nothing dirty survives in the tier, the **newest** version ever
///   written is among the persisted copies (nothing lost);
/// * `writeback_flushes` never exceeds the number of distinct persisted
///   versions (nothing counted twice).
#[test]
fn mem_tier_flush_vs_evict_conserves_dirty_bytes() {
    use nest_storage::{MemTier, VPath};

    let report = check(&Config::exhaustive(), || {
        let tier = Arc::new(MemTier::new(1 << 20));
        let path = VPath::parse("/model/dirty").expect("valid vpath");
        let persisted: PersistLog = Arc::new(Mutex::named("model.persist_log", 901, Vec::new()));

        // Seed: version 1, dirty, before any task races.
        let seeded = tier
            .write_back(&path, 0, &[1u8; 64], Some(Vec::new()), false)
            .is_some();
        assert!(seeded, "seed write must be absorbed");

        let writer = {
            let tier = Arc::clone(&tier);
            let path = path.clone();
            // `None` base: if the evictor already removed the object the
            // tier refuses (caller would write through); report whether
            // version 2 actually entered the tier.
            thread::spawn(move || tier.write_back(&path, 0, &[2u8; 64], None, false).is_some())
        };
        let flusher = {
            let tier = Arc::clone(&tier);
            let persisted = Arc::clone(&persisted);
            thread::spawn(move || {
                if let Some(d) = tier.snapshot_dirty().into_iter().next() {
                    persisted.lock().push((d.version, d.data.to_vec()));
                    tier.mark_clean(&d.path, d.version);
                }
            })
        };
        let evictor = {
            let tier = Arc::clone(&tier);
            let path = path.clone();
            let persisted = Arc::clone(&persisted);
            thread::spawn(move || {
                if let Some(d) = tier.invalidate(&path) {
                    persisted.lock().push((d.version, d.data.to_vec()));
                }
            })
        };
        let wrote_v2 = writer.join();
        flusher.join();
        evictor.join();

        let persisted = persisted.lock().clone();
        let newest = if wrote_v2 { 2 } else { 1 };
        let resident = tier.snapshot_dirty();

        // Distinct versions persisted, and byte-identity per version:
        // persisting the same version twice (flush and evict can both
        // hand out v1) is idempotent, but the copies must agree.
        let mut versions: Vec<u64> = persisted.iter().map(|(v, _)| *v).collect();
        versions.sort_unstable();
        for pair in persisted.iter() {
            for other in persisted.iter() {
                if pair.0 == other.0 {
                    assert_eq!(
                        pair.1, other.1,
                        "version {} persisted with diverging bytes",
                        pair.0
                    );
                }
            }
        }
        versions.dedup();

        // Conservation: the newest write is either still dirty in the
        // tier (awaiting a later flush pass) or already persisted.
        let newest_dirty_resident = resident.iter().any(|d| d.version == newest);
        if !newest_dirty_resident {
            assert!(
                versions.contains(&newest),
                "version {newest} lost: not dirty in tier, never persisted \
                 (persisted: {versions:?})"
            );
        }

        // No double-count: each `mark_clean` success is one flush, and
        // the version guard means at most one success per version.
        let flushes = tier.stats().writeback_flushes;
        assert!(
            flushes as usize <= versions.len(),
            "{flushes} flushes recorded for {} distinct persisted versions",
            versions.len()
        );
    });
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
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

/// Striped-lot byte conservation (`storage.lot` over two cells): a
/// charge into the active lot (per-cell fast path), a release of an
/// earlier charge (peek-then-widen cross-cell path), and an admission
/// that fails the sloppy `committed` CAS and must take the all-cells
/// reclaim path — evicting the expired best-effort lot — all race.
/// Under every interleaving the global promise invariant
/// Σ active capacities + Σ best-effort used ≤ total capacity holds, the
/// charge and release each land exactly once, and reclamation removes
/// exactly the expired victim.
#[test]
fn striped_lot_charge_release_evict_conserves_bytes() {
    use nest_storage::lot::{LotManager, LotOwner, ReclaimPolicy};
    use nest_storage::VPath;
    use std::collections::HashSet;

    let report = check(&Config::exhaustive(), || {
        // Two cells; lot ids start at 1 and map to cells by `id % 2`.
        let mgr = Arc::new(LotManager::with_shards(100, ReclaimPolicy::ExpiredFirst, 2));
        let f0 = VPath::parse("/model/f0").expect("valid vpath");
        let f1 = VPath::parse("/model/f1").expect("valid vpath");
        let f2 = VPath::parse("/model/f2").expect("valid vpath");
        let no_groups = HashSet::new();

        // Lot 1 (cell 1): active for user "u", pre-charged 5 bytes (f0).
        // Lot 2 (cell 0): expires at t=1 holding 25 bytes (f2) — the
        // best-effort reclaim victim once the clock reads 10.
        let (active_id, _) = mgr
            .create(LotOwner::User("u".into()), 40, 1000, 0)
            .expect("active lot");
        let (victim_id, _) = mgr
            .create(LotOwner::User("v".into()), 40, 1, 0)
            .expect("victim lot");
        assert_eq!((active_id.0 % 2, victim_id.0 % 2), (1, 0));
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
        // committed = 80, so the 55-byte CAS fast path cannot admit;
        // the slow path holds every cell, reclaims lot 2 (expired, 25
        // used), and recomputes the exact bound.
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
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
}

/// The sharded session registry's admit-vs-drain consistency: `serve()`
/// removes a finished connection from its id's cell while `drain` walks
/// the cells one at a time (the production [`parking_lot::ShardedMutex`]
/// primitive, two cells) hard-closing whatever is still present. Under
/// every interleaving of the walk with concurrent self-removal, each
/// admitted connection deregisters exactly once, the registry ends
/// empty, and the walk never counts a connection that had already left
/// its cell.
#[test]
fn sharded_live_registry_walk_vs_removal_is_consistent() {
    use parking_lot::ShardedMutex;
    use std::collections::HashMap;
    use std::sync::atomic::AtomicUsize;

    let report = check(&Config::exhaustive(), || {
        let live: Arc<ShardedMutex<HashMap<u64, ()>>> =
            Arc::new(ShardedMutex::new("model.session.live", 902, 2, |_| {
                HashMap::new()
            }));
        let active = Arc::new(AtomicUsize::new(0));
        let hard_closed = Arc::new(AtomicUsize::new(0));

        // Two connections, one per cell (`lock` shards by the id), both
        // admitted before the drain begins — the stop-accepting barrier
        // in the real layer guarantees no admissions race the walk.
        for id in [0u64, 1u64] {
            active.fetch_add(1, Ordering::SeqCst);
            live.lock(id).insert(id, ());
        }

        let workers: Vec<_> = [0u64, 1u64]
            .into_iter()
            .map(|id| {
                let live = Arc::clone(&live);
                let active = Arc::clone(&active);
                thread::spawn(move || {
                    // serve(): the request stream ends (naturally or cut
                    // by the drain's shutdown) and the worker deregisters.
                    let was_live = live.lock(id).remove(&id).is_some();
                    assert!(was_live, "a connection deregisters exactly once");
                    active.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        let drainer = {
            let live = Arc::clone(&live);
            let hard_closed = Arc::clone(&hard_closed);
            thread::spawn(move || {
                // drain(): walk cells sequentially; every entry still
                // present gets its stream shut down and counted.
                live.for_each_cell(|_, cell| {
                    hard_closed.fetch_add(cell.len(), Ordering::SeqCst);
                });
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
        let leftover: usize = live.for_each_cell(|_, c| c.len()).into_iter().sum();
        assert_eq!(leftover, 0, "registry drains to empty");
        assert!(
            hard_closed.load(Ordering::SeqCst) <= 2,
            "the walk never double-counts a connection"
        );
    });
    assert!(report.complete, "exploration hit a budget: {report:?}");
    assert!(report.failure.is_none());
}
