//! Seeded fault stress loop (gated behind `--features fault-injection`).
//!
//! Hammers the manager with flaky flows across all three models and all
//! three policies under one fixed seed, and asserts the global failure
//! invariants: every submitter gets an answer, the queue drains to zero,
//! and the stats ledger balances (successes + failures = submissions).
//!
//! Run with:
//! `cargo test -p nest-transfer --release --features fault-injection fault_stress`
#![cfg(feature = "fault-injection")]

use nest_obs::Obs;
use nest_transfer::fault::{FlakySource, RetryPolicy};
use nest_transfer::flow::{CountingSink, FlowMeta, PatternSource};
use nest_transfer::manager::{ModelSelection, SchedPolicy, TransferConfig, TransferManager};
use nest_transfer::ModelKind;
use std::io;
use std::sync::Arc;

const SEED: u64 = 0x1357_9bdf_2468_ace0;
const FLOWS_PER_CONFIG: u64 = 64;

fn policies() -> Vec<SchedPolicy> {
    vec![
        SchedPolicy::Fcfs,
        SchedPolicy::Proportional {
            tickets: vec![("hot".into(), 300), ("cold".into(), 100)],
            work_conserving: true,
        },
        SchedPolicy::CacheAware,
    ]
}

#[test]
fn fault_stress_invariants_hold() {
    let models = [
        ModelSelection::Fixed(ModelKind::Events),
        ModelSelection::Fixed(ModelKind::Threads),
        ModelSelection::Adaptive(vec![ModelKind::Events, ModelKind::Threads]),
    ];
    for policy in policies() {
        for model in &models {
            let obs = Obs::new();
            let tm = TransferManager::new(TransferConfig {
                policy: policy.clone(),
                model: model.clone(),
                obs: Some(Arc::clone(&obs)),
                ..TransferConfig::default()
            });
            let mut handles = Vec::new();
            for i in 0..FLOWS_PER_CONFIG {
                let class = if i % 2 == 0 { "hot" } else { "cold" };
                let size = 32 * 1024 + (i % 7) * 8 * 1024;
                // ~10% of chunks fail transiently; 4 attempts with fast,
                // seeded backoff get most flows through, and the ones that
                // exhaust the budget must fail cleanly.
                let meta = FlowMeta::new(tm.next_flow_id(), class, Some(size))
                    .with_retry(RetryPolicy::standard().with_seed(SEED.wrapping_add(i)));
                let src = FlakySource::new(
                    PatternSource::new(size),
                    100,
                    io::ErrorKind::ConnectionReset,
                    SEED ^ i,
                );
                handles.push((
                    size,
                    tm.submit(meta, Box::new(src), Box::new(CountingSink::default())),
                ));
            }
            let mut ok = 0u64;
            let mut failed = 0u64;
            for (size, h) in handles {
                // Invariant 1: every submitter gets an answer.
                match h.wait() {
                    Ok(n) => {
                        assert_eq!(n, size, "short success under {:?}", policy);
                        ok += 1;
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
                        failed += 1;
                    }
                }
            }
            let stats = tm.stats();
            // Invariant 2: the ledger balances.
            let completed: u64 = stats.classes.values().map(|c| c.completed).sum();
            let class_failed: u64 = stats.classes.values().map(|c| c.failed).sum();
            assert_eq!(completed, ok, "completed ledger drifted under {:?}", policy);
            assert_eq!(class_failed, failed);
            assert_eq!(stats.failures, failed);
            assert_eq!(ok + failed, FLOWS_PER_CONFIG);
            // Invariant 3: nothing is stranded.
            assert_eq!(
                obs.snapshot().count("transfer.queue_depth"),
                0,
                "stranded flows under {:?}",
                policy
            );
            // Sanity: a 10%-per-chunk fault rate with a 4-attempt budget
            // should let the majority of flows through.
            assert!(
                ok > FLOWS_PER_CONFIG / 2,
                "only {} of {} ok",
                ok,
                FLOWS_PER_CONFIG
            );
            tm.shutdown();
        }
    }
}
