//! The fault matrix: every injected `ErrorKind` × every concurrency model
//! × every scheduling policy must surface as an `Err` to the submitter,
//! abort the sink, and leave no flow stranded (`transfer.queue_depth`
//! returns to zero).

use nest_obs::Obs;
use nest_transfer::fault::{FaultBudget, FaultingSink, FaultingSource, RetryPolicy};
use nest_transfer::flow::{CountingSink, FlowMeta, PatternSource};
use nest_transfer::manager::{ModelSelection, SchedPolicy, TransferConfig, TransferManager};
use nest_transfer::ModelKind;
use std::io;
use std::sync::Arc;

const MODELS: [ModelKind; 2] = [ModelKind::Events, ModelKind::Threads];

/// Transient and permanent kinds, exercising both classifier branches.
const KINDS: [io::ErrorKind; 5] = [
    io::ErrorKind::ConnectionReset,  // transient
    io::ErrorKind::TimedOut,         // transient
    io::ErrorKind::NotFound,         // permanent
    io::ErrorKind::PermissionDenied, // permanent
    io::ErrorKind::UnexpectedEof,    // permanent
];

fn policies() -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::Fcfs,
        SchedPolicy::Proportional {
            tickets: vec![("a".into(), 300), ("b".into(), 100)],
            work_conserving: true,
        },
        SchedPolicy::CacheAware,
    ]
}

fn manager(policy: SchedPolicy, model: ModelKind, obs: &Arc<Obs>) -> TransferManager {
    TransferManager::new(TransferConfig {
        policy,
        model: ModelSelection::Fixed(model),
        obs: Some(Arc::clone(obs)),
        ..TransferConfig::default()
    })
}

#[test]
fn source_faults_surface_and_nothing_is_stranded() {
    for policy in policies() {
        for model in MODELS {
            let obs = Obs::new();
            let tm = manager(policy.clone(), model, &obs);
            let mut handles = Vec::new();
            for (i, kind) in KINDS.iter().enumerate() {
                let class = if i % 2 == 0 { "a" } else { "b" };
                // No retry budget: the fault must surface verbatim.
                let meta = FlowMeta::new(tm.next_flow_id(), class, Some(256 * 1024))
                    .with_retry(RetryPolicy::none());
                let src = FaultingSource::new(
                    PatternSource::new(256 * 1024),
                    64 * 1024,
                    *kind,
                    FaultBudget::Always,
                );
                handles.push((
                    *kind,
                    tm.submit(meta, Box::new(src), Box::new(CountingSink::default())),
                ));
            }
            // A healthy flow proves the engine keeps serving after faults.
            let ok = tm.submit(
                FlowMeta::new(tm.next_flow_id(), "a", Some(64 * 1024)),
                Box::new(PatternSource::new(64 * 1024)),
                Box::new(CountingSink::default()),
            );
            for (kind, h) in handles {
                let err = h.wait().expect_err(&format!(
                    "{:?} swallowed under {:?}/{}",
                    kind, policy, model
                ));
                assert_eq!(err.kind(), kind, "wrong kind under {:?}/{}", policy, model);
            }
            assert_eq!(ok.wait().unwrap(), 64 * 1024);
            let stats = tm.stats();
            assert_eq!(stats.failures, KINDS.len() as u64);
            let snap = obs.snapshot();
            assert_eq!(
                snap.count("transfer.queue_depth"),
                0,
                "stranded flows under {:?}/{}",
                policy,
                model
            );
            assert_eq!(
                snap.count("transfer.aborted"),
                KINDS.len() as u64,
                "missing sink aborts under {:?}/{}",
                policy,
                model
            );
            assert_eq!(snap.count("transfer.failures"), KINDS.len() as u64);
            assert_eq!(snap.count("transfer.completed"), 1);
            tm.shutdown();
        }
    }
}

#[test]
fn sink_faults_surface_and_abort_cleanup_runs() {
    for model in MODELS {
        let obs = Obs::new();
        let tm = manager(SchedPolicy::Fcfs, model, &obs);
        let meta =
            FlowMeta::new(tm.next_flow_id(), "a", Some(128 * 1024)).with_retry(RetryPolicy::none());
        let sink = FaultingSink::new(
            CountingSink::default(),
            32 * 1024,
            io::ErrorKind::StorageFull,
            FaultBudget::Always,
        );
        let h = tm.submit(
            meta,
            Box::new(PatternSource::new(128 * 1024)),
            Box::new(sink),
        );
        let err = h.wait().expect_err("sink fault swallowed");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull, "model {}", model);
        let snap = obs.snapshot();
        assert_eq!(snap.count("transfer.aborted"), 1, "model {}", model);
        assert_eq!(snap.count("transfer.queue_depth"), 0, "model {}", model);
        tm.shutdown();
    }
}

#[test]
fn transient_faults_recover_across_the_matrix() {
    for policy in policies() {
        for model in MODELS {
            let obs = Obs::new();
            let tm = manager(policy.clone(), model, &obs);
            // Fails twice at byte 0 with a transient kind, then recovers;
            // a 4-attempt budget gets it through.
            let meta = FlowMeta::new(tm.next_flow_id(), "a", Some(100_000))
                .with_retry(RetryPolicy::standard().with_seed(0xfa11));
            let src = FaultingSource::new(
                PatternSource::new(100_000),
                0,
                io::ErrorKind::ConnectionReset,
                FaultBudget::Times(2),
            );
            let h = tm.submit(meta, Box::new(src), Box::new(CountingSink::default()));
            assert_eq!(
                h.wait()
                    .unwrap_or_else(|e| panic!("retry failed under {:?}/{}: {}", policy, model, e)),
                100_000
            );
            let stats = tm.stats();
            assert_eq!(stats.retries, 2, "under {:?}/{}", policy, model);
            assert_eq!(stats.failures, 0, "under {:?}/{}", policy, model);
            let snap = obs.snapshot();
            assert_eq!(snap.count("transfer.retries"), 2);
            assert_eq!(snap.count("transfer.queue_depth"), 0);
            tm.shutdown();
        }
    }
}
