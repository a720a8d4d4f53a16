//! End-to-end failure semantics through the dispatcher: a failed PUT must
//! leave *nothing* behind — no partial file in the namespace and no
//! residual lot charge — while retried transients recover invisibly and
//! every outcome is visible on the monitoring surfaces.

use nest::core::config::NestConfig;
use nest::core::dispatcher::{ChannelSink, Dispatcher};
use nest::obs::Obs;
use nest::proto::request::{NestRequest, NestResponse};
use nest::storage::Principal;
use nest::transfer::fault::{FaultBudget, FaultingSource, RetryPolicy};
use nest::transfer::flow::PatternSource;
use std::io;
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

/// A failed *overwrite* leaves nothing behind either: the old version's
/// charge was released at admission, the new one is released by the
/// abort, and an unrelated object keeps its charge and its bytes.
#[test]
fn failed_overwrite_releases_lot_charge() {
    let obs = Obs::new();
    let d = dispatcher_with(&obs);
    let who = alice();
    let get = |path: &str| -> Vec<u8> {
        let (vpath, size, cached) = d.admit_get(&who, "chirp", path).unwrap();
        let (sink, rx) = ChannelSink::new();
        d.transfer_get(&who, "chirp", &vpath, size, cached, Box::new(sink))
            .unwrap();
        rx.recv().unwrap()
    };

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
    }
    assert_eq!(d.storage().committed_bytes(), kept + 20_000);

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

    assert_eq!(d.storage().committed_bytes(), kept, "lot charge leaked");
    let stat = d.execute_sync(
        &who,
        "chirp",
        &NestRequest::Stat {
            path: "/doomed".into(),
        },
    );
    assert!(matches!(stat, NestResponse::Error(_)), "{:?}", stat);
    assert_eq!(get("/kept"), pattern);
    d.shutdown();
}
