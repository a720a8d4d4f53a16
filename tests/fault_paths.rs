//! End-to-end failure semantics through the dispatcher: a failed PUT must
//! leave *nothing* behind — no partial file in the namespace and no
//! residual lot charge — while retried transients recover invisibly and
//! every outcome is visible on the monitoring surfaces.

use nest::core::config::NestConfig;
use nest::core::dispatcher::{ChannelSink, Dispatcher};
use nest::obs::Obs;
use nest::proto::request::{NestRequest, NestResponse};
use nest::storage::{AclTable, MemBackend, Principal, ReclaimPolicy, StorageManager, VPath};
use nest::transfer::fault::{FaultBudget, FaultingSource, RetryPolicy};
use nest::transfer::flow::PatternSource;
use proptest::prelude::*;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn alice() -> Principal {
    Principal::user("alice")
}

fn dispatcher_with(obs: &Arc<Obs>) -> Dispatcher {
    let config = NestConfig::builder("fault-e2e")
        .obs(Arc::clone(obs))
        .retry(RetryPolicy::standard().with_seed(0xe2e))
        .build()
        .unwrap();
    let d = Dispatcher::new(&config).unwrap();
    // A lot so PUTs are admitted.
    let resp = d.execute_sync(
        &alice(),
        "chirp",
        &NestRequest::LotCreate {
            capacity: 1 << 20,
            duration: 3600,
        },
    );
    assert!(matches!(resp, NestResponse::OkLot(_)), "{:?}", resp);
    d
}

#[test]
fn failed_put_leaves_no_partial_file_and_no_lot_charge() {
    let obs = Obs::new();
    let d = dispatcher_with(&obs);
    let who = alice();
    let size = 200_000u64;
    let vpath = d.admit_put(&who, "chirp", "/doomed", Some(size)).unwrap();
    // Admission charged the lot.
    assert_eq!(d.storage().committed_bytes(), size);
    // The source dies permanently after 64 KiB: some chunks reach disk,
    // then the transfer fails terminally.
    let src = FaultingSource::new(
        PatternSource::new(size),
        64 * 1024,
        io::ErrorKind::UnexpectedEof,
        FaultBudget::Always,
    );
    let err = d
        .transfer_put(&who, "chirp", &vpath, Box::new(src), Some(size))
        .expect_err("fault must surface");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    // Abort-cleanup ran: no partial file in the namespace…
    let stat = d.execute_sync(
        &who,
        "chirp",
        &NestRequest::Stat {
            path: "/doomed".into(),
        },
    );
    assert!(
        matches!(stat, NestResponse::Error(_)),
        "partial file survived: {:?}",
        stat
    );
    // …and no residual lot charge (would otherwise leak until expiry).
    assert_eq!(d.storage().committed_bytes(), 0, "lot charge leaked");
    let snap = d.metrics_snapshot();
    assert!(snap.count("transfer.aborted") >= 1);
    assert!(snap.count("transfer.failures") >= 1);
    assert_eq!(snap.count("transfer.queue_depth"), 0);
    d.shutdown();
}

#[test]
fn transient_put_fault_retries_to_success() {
    let obs = Obs::new();
    let d = dispatcher_with(&obs);
    let who = alice();
    let size = 150_000u64;
    let vpath = d.admit_put(&who, "chirp", "/bumpy", Some(size)).unwrap();
    // One transient hiccup at 32 KiB; the appliance-default retry policy
    // (stamped by the dispatcher) replays the flow from the start.
    let src = FaultingSource::new(
        PatternSource::new(size),
        32 * 1024,
        io::ErrorKind::ConnectionReset,
        FaultBudget::Times(1),
    );
    let moved = d
        .transfer_put(&who, "chirp", &vpath, Box::new(src), Some(size))
        .unwrap();
    assert_eq!(moved, size);
    // The stored file is complete and correctly sized.
    match d.execute_sync(
        &who,
        "chirp",
        &NestRequest::Stat {
            path: "/bumpy".into(),
        },
    ) {
        NestResponse::OkSize(n) => assert_eq!(n, size),
        other => panic!("{:?}", other),
    }
    let snap = d.metrics_snapshot();
    assert!(snap.count("transfer.retries") >= 1);
    assert_eq!(snap.count("transfer.failures"), 0);
    d.shutdown();
}

#[test]
fn storage_ad_reports_failure_domain_counters() {
    let obs = Obs::new();
    let d = dispatcher_with(&obs);
    let who = alice();
    let vpath = d.admit_put(&who, "chirp", "/ad", Some(1000)).unwrap();
    let src = FaultingSource::new(
        PatternSource::new(1000),
        0,
        io::ErrorKind::PermissionDenied,
        FaultBudget::Always,
    );
    let _ = d.transfer_put(&who, "chirp", &vpath, Box::new(src), Some(1000));
    let ad = d.storage_ad(&["chirp"]);
    match ad.eval("TransferFailures") {
        nest::classad::Value::Int(n) => assert!(n >= 1, "TransferFailures = {}", n),
        other => panic!("TransferFailures missing: {:?}", other),
    }
    match ad.eval("TransferRetries") {
        nest::classad::Value::Int(n) => assert!(n >= 0),
        other => panic!("TransferRetries missing: {:?}", other),
    }
    // The failed PUT released its charge, so the ad advertises zero
    // committed bytes — matchmakers see honest occupancy.
    match ad.eval("LotBytesCommitted") {
        nest::classad::Value::Int(n) => assert_eq!(n, 0),
        other => panic!("LotBytesCommitted missing: {:?}", other),
    }
    d.shutdown();
}

#[test]
fn transfer_deadline_config_bounds_a_stuck_put() {
    /// A source that never delivers its payload: each read trickles one
    /// byte per millisecond, so only a deadline can end the flow.
    struct Stuck;
    impl nest::transfer::DataSource for Stuck {
        fn read_chunk(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            std::thread::sleep(Duration::from_millis(1));
            buf[0] = 1;
            Ok(1)
        }
    }
    let obs = Obs::new();
    let config = NestConfig::builder("deadline-e2e")
        .obs(Arc::clone(&obs))
        .transfer_deadline(Some(Duration::from_millis(50)))
        .build()
        .unwrap();
    let d = Dispatcher::new(&config).unwrap();
    d.execute_sync(
        &alice(),
        "chirp",
        &NestRequest::LotCreate {
            capacity: 1 << 20,
            duration: 3600,
        },
    );
    let who = alice();
    let vpath = d.admit_put(&who, "chirp", "/stuck", None).unwrap();
    let err = d
        .transfer_put(&who, "chirp", &vpath, Box::new(Stuck), None)
        .expect_err("deadline must fire");
    assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    let snap = d.metrics_snapshot();
    assert!(snap.count("transfer.deadline_exceeded") >= 1);
    // Cleanup ran for the stuck PUT as well.
    assert_eq!(d.storage().committed_bytes(), 0);
    d.shutdown();
}

// ---------------------------------------------------------------------------
// Memory-tier failure semantics (DESIGN.md §15): the lot guarantee extends
// into RAM, and a failed PUT releases tier bytes along with the lot charge.

const HOT_FILES: usize = 4;
const CHURN_FILES: usize = 12;
const OBJ: u64 = 8 * 1024;

/// A manager under an injected clock with a 64 KiB memory tier, a
/// guaranteed lot holding exactly `HOT_FILES` promoted residents, and
/// `CHURN_FILES` files whose backing lot has already expired — so every
/// later promotion of them is best-effort.
fn tiered_manager_with_expired_churn(clock: Arc<AtomicU64>) -> StorageManager {
    let c = Arc::clone(&clock);
    let sm = StorageManager::new(
        Arc::new(MemBackend::new()),
        AclTable::open_by_default(),
        1 << 20,
        ReclaimPolicy::ExpiredFirst,
    )
    .with_clock(Arc::new(move || c.load(Ordering::Relaxed)))
    .with_ram_tier(64 * 1024);
    let who = alice();
    clock.store(1000, Ordering::Relaxed);
    // Lot ids charge greedily in creation order: the guaranteed lot is
    // sized to hold exactly the hot files, so churn files land wholly in
    // the short-lived lot.
    sm.lot_create(&who, HOT_FILES as u64 * OBJ, 3600).unwrap();
    sm.lot_create(&who, CHURN_FILES as u64 * OBJ, 60).unwrap();
    for i in 0..HOT_FILES {
        let p = VPath::parse(&format!("/hot{i}")).unwrap();
        sm.begin_put(&who, "chirp", &p, OBJ).unwrap();
        sm.write_chunk(&who, &p, 0, &vec![b'h'; OBJ as usize])
            .unwrap();
    }
    for i in 0..CHURN_FILES {
        let p = VPath::parse(&format!("/churn{i}")).unwrap();
        sm.begin_put(&who, "chirp", &p, OBJ).unwrap();
        sm.write_chunk(&who, &p, 0, &vec![b'c'; OBJ as usize])
            .unwrap();
    }
    // Promote every hot file (second access within the window) while its
    // lot is live: the tier classifies them as guaranteed residents.
    for i in 0..HOT_FILES {
        let p = VPath::parse(&format!("/hot{i}")).unwrap();
        sm.begin_get(&who, "chirp", &p).unwrap();
        sm.begin_get(&who, "chirp", &p).unwrap();
        assert!(sm.tier_object(&p).is_some(), "/hot{i} not promoted");
    }
    assert_eq!(sm.mem_tier().guaranteed_bytes(), HOT_FILES as u64 * OBJ);
    // Past the churn lot's expiry: its files are now best-effort.
    clock.store(2000, Ordering::Relaxed);
    sm
}

/// Deterministic worst case: promoting every churn file (96 KiB of demand
/// against 32 KiB of headroom) must evict only best-effort entries —
/// the guaranteed residents survive with their bytes intact.
#[test]
fn best_effort_churn_never_evicts_guaranteed_residents() {
    let clock = Arc::new(AtomicU64::new(0));
    let sm = tiered_manager_with_expired_churn(Arc::clone(&clock));
    let who = alice();
    for i in 0..CHURN_FILES {
        let p = VPath::parse(&format!("/churn{i}")).unwrap();
        sm.begin_get(&who, "chirp", &p).unwrap();
        sm.begin_get(&who, "chirp", &p).unwrap();
    }
    let stats = sm.tier_stats();
    // Pressure-driven removals are `demotions` (coherence invalidations
    // are `evictions`); the churn must actually have forced some.
    assert!(stats.demotions > 0, "churn never pressured the tier");
    assert!(stats.bytes <= 64 * 1024, "budget breached: {}", stats.bytes);
    assert_eq!(sm.mem_tier().guaranteed_bytes(), HOT_FILES as u64 * OBJ);
    for i in 0..HOT_FILES {
        let p = VPath::parse(&format!("/hot{i}")).unwrap();
        assert!(sm.tier_object(&p).is_some(), "/hot{i} evicted by churn");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property: for *any* interleaving of best-effort accesses, the
    /// guaranteed lot's tier bytes never drop below the guarantee and the
    /// budget is never breached — checked after every single access.
    #[test]
    fn guaranteed_tier_bytes_survive_any_churn_order(
        accesses in prop::collection::vec(0usize..CHURN_FILES, 1..200),
    ) {
        let clock = Arc::new(AtomicU64::new(0));
        let sm = tiered_manager_with_expired_churn(Arc::clone(&clock));
        let who = alice();
        for &i in &accesses {
            let p = VPath::parse(&format!("/churn{i}")).unwrap();
            sm.begin_get(&who, "chirp", &p).unwrap();
            prop_assert_eq!(
                sm.mem_tier().guaranteed_bytes(),
                HOT_FILES as u64 * OBJ,
                "guarantee violated after access to /churn{}", i
            );
            prop_assert!(sm.tier_stats().bytes <= 64 * 1024);
        }
        for i in 0..HOT_FILES {
            let p = VPath::parse(&format!("/hot{i}")).unwrap();
            prop_assert!(sm.tier_object(&p).is_some(), "/hot{} evicted", i);
        }
    }
}

/// End-to-end through the dispatcher on a tiered appliance: a failed
/// overwrite of a promoted object releases its lot charge and leaves no
/// tier bytes for its path, while an unrelated promoted resident keeps
/// its bytes and still serves.
#[test]
fn tiered_failed_put_releases_lot_charge_and_tier_bytes() {
    let obs = Obs::new();
    let config = NestConfig::builder("tier-fault-e2e")
        .obs(Arc::clone(&obs))
        .ram_tier_bytes(1 << 20)
        .retry(RetryPolicy::standard().with_seed(0xe2e))
        .build()
        .unwrap();
    let d = Dispatcher::new(&config).unwrap();
    let who = alice();
    let resp = d.execute_sync(
        &who,
        "chirp",
        &NestRequest::LotCreate {
            capacity: 1 << 20,
            duration: 3600,
        },
    );
    assert!(matches!(resp, NestResponse::OkLot(_)), "{:?}", resp);
    let get = |path: &str| -> Vec<u8> {
        let (vpath, size, cached) = d.admit_get(&who, "chirp", path).unwrap();
        let (sink, rx) = ChannelSink::new();
        d.transfer_get(&who, "chirp", &vpath, size, cached, Box::new(sink))
            .unwrap();
        rx.recv().unwrap()
    };

    // Two healthy objects, each promoted by a second GET in the window.
    let kept = 10_000u64;
    let pattern: Vec<u8> = (0..kept).map(|i| i as u8).collect();
    for (path, len) in [("/kept", kept), ("/doomed", 20_000)] {
        let vpath = d.admit_put(&who, "chirp", path, Some(len)).unwrap();
        d.transfer_put(
            &who,
            "chirp",
            &vpath,
            Box::new(PatternSource::new(len)),
            Some(len),
        )
        .unwrap();
        get(path);
        get(path);
        assert!(
            d.storage().tier_object(&vpath).is_some(),
            "{path} not promoted"
        );
    }

    // The overwrite of /doomed dies after 64 KiB.
    let size = 200_000u64;
    let vpath = d.admit_put(&who, "chirp", "/doomed", Some(size)).unwrap();
    assert_eq!(d.storage().committed_bytes(), kept + size);
    let src = FaultingSource::new(
        PatternSource::new(size),
        64 * 1024,
        io::ErrorKind::UnexpectedEof,
        FaultBudget::Always,
    );
    let err = d
        .transfer_put(&who, "chirp", &vpath, Box::new(src), Some(size))
        .expect_err("fault must surface");
    assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

    // Abort released the lot charge and every tier byte of /doomed …
    assert_eq!(d.storage().committed_bytes(), kept, "lot charge leaked");
    assert!(
        d.storage().tier_object(&vpath).is_none(),
        "aborted object still tier-resident"
    );
    assert_eq!(d.storage().tier_stats().bytes, kept);
    let stat = d.execute_sync(
        &who,
        "chirp",
        &NestRequest::Stat {
            path: "/doomed".into(),
        },
    );
    assert!(matches!(stat, NestResponse::Error(_)), "{:?}", stat);

    // … while the survivor still serves its bytes from the tier.
    let hits = d.storage().tier_stats().hits;
    assert_eq!(get("/kept"), pattern);
    assert_eq!(d.storage().tier_stats().hits, hits + 1);
    d.shutdown();
}
